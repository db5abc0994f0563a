"""Per-segment bitrate ladders: prediction grid, resolution choice, pruning.

For each target bitrate the selector picks the resolution with the highest
predicted quality among those whose predicted encoding time fits the latency
budget; ties go to the lower resolution (cheaper to encode).  When no
resolution fits, the cheapest one is returned with ``over_budget`` set so
callers can decide whether to keep or drop the rung.

Pruning walks the bitrate-sorted ladder once: the first rung is always kept;
a later rung survives only if its predicted quality exceeds the last kept
rung's by at least the noticeable-difference step, and the walk ends as soon
as a kept rung reaches the perceptually-lossless cap.

:func:`decide` makes both decisions for every segment of a catalog at once,
into the arrays of :class:`Decisions`; :func:`build_ladder`, :func:`select_resolution`
and :func:`prune_jnd` are its one-segment case.  :func:`manifest_texts` writes
every manifest from those arrays, with all their values encoded by one
``json.dumps`` call; the text is what ``json.dumps(manifest, indent=2)`` writes.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import compress, product
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .complexity import SegmentFeatures
from .errors import LadderforgeError
from .forest import ForestModel, feature_rows, predict
from .table import finite_float, read_columns

__all__ = [
    "DEFAULT_HLS_PAIRING",
    "Representation",
    "LadderParams",
    "Ladder",
    "PredictionGrid",
    "Decisions",
    "ResolutionChoice",
    "LadderError",
    "EmptyLadder",
    "UnsortedLadder",
    "MissingPrediction",
    "UnknownBitrate",
    "PairingMissing",
    "ModelMismatch",
    "predict_grid",
    "decide",
    "select_resolution",
    "build_ladder",
    "prune_jnd",
    "default_hls_ladder",
    "load_pairing_csv",
    "ladder_to_manifest",
    "manifest_texts",
]

# Fixed-ladder baseline pairing (bitrate Mbps -> encode resolution), the
# rungs a packager would use when nothing is known about the content.
DEFAULT_HLS_PAIRING: tuple[tuple[float, int], ...] = (
    (0.145, 360),
    (0.300, 360),
    (0.600, 360),
    (0.900, 360),
    (1.600, 720),
    (2.400, 720),
    (3.400, 720),
    (4.500, 1080),
    (5.800, 1080),
    (8.100, 1080),
    (11.600, 2160),
    (16.800, 2160),
)

class LadderError(LadderforgeError):
    pass


class EmptyLadder(LadderError):
    pass


class UnsortedLadder(LadderError):
    pass


class MissingPrediction(LadderError):
    pass


class UnknownBitrate(LadderError):
    pass


class PairingMissing(LadderError):
    pass


class ModelMismatch(LadderError):
    pass


@dataclass(frozen=True)
class Representation:
    """One ladder rung: a (resolution, bitrate) pair, optionally annotated."""

    resolution: int
    bitrate: float
    predicted_vmaf: float | None = None
    predicted_time: float | None = None
    over_budget: bool = False


@dataclass(frozen=True)
class LadderParams:
    tau_l: float = math.inf
    v_j: float | None = None
    v_t: float | None = None
    vsr_tag: str = "none"


@dataclass(frozen=True)
class Ladder:
    """Representations in strictly increasing bitrate order."""

    reps: tuple[Representation, ...]
    params: LadderParams = LadderParams()

    def __post_init__(self):
        reps = tuple(self.reps)
        if not reps:
            raise EmptyLadder("a ladder needs at least one representation")
        for a, b in zip(reps, reps[1:]):
            if not a.bitrate < b.bitrate:
                raise UnsortedLadder(
                    f"bitrates must strictly increase, got {a.bitrate} then {b.bitrate}"
                )
        object.__setattr__(self, "reps", reps)

    @property
    def bitrates(self) -> tuple[float, ...]:
        return tuple(rep.bitrate for rep in self.reps)


class ResolutionChoice(NamedTuple):
    resolution: int
    over_budget: bool


@dataclass(frozen=True, eq=False)
class PredictionGrid:
    """Predicted (quality, time) for every (resolution, bitrate) pair: two
    arrays indexed ``[..., resolution, bitrate]``, both axes ascending, every
    cell checked on construction.  A catalog grid has a leading segment axis.
    ``entries`` maps every ``(resolution, bitrate)``, or ``(segment,
    resolution, bitrate)``, to its (quality, time); it is derived from the
    arrays when first read.
    """

    resolutions: tuple[int, ...]
    bitrates: tuple[float, ...]
    qualities: np.ndarray
    times: np.ndarray

    def __post_init__(self):
        resolutions, bitrates = tuple(self.resolutions), tuple(self.bitrates)
        if not resolutions or not bitrates:
            raise LadderError("grid needs at least one resolution and one bitrate")
        if list(resolutions) != sorted(resolutions) or list(bitrates) != sorted(bitrates):
            raise LadderError("grid axes must be sorted ascending")
        try:  # copies, so that no later write gets past the checks below
            if np.iscomplexobj(self.qualities) or np.iscomplexobj(self.times):
                raise TypeError("complex values")  # numpy would drop the imaginary parts with a warning
            qualities, times = np.array(self.qualities, np.float64), np.array(self.times, np.float64)
        except (TypeError, ValueError) as exc:
            raise LadderError(f"grid arrays must be numeric: {exc}") from None
        qualities.flags.writeable = times.flags.writeable = False
        if qualities.shape != times.shape or qualities.shape[-2:] != (len(resolutions), len(bitrates)):
            raise LadderError(f"grid arrays must be shaped [..., {len(resolutions)}, {len(bitrates)}], "
                              f"got {qualities.shape} and {times.shape}")
        bad_quality = ~((qualities >= 0.0) & (qualities <= 100.0))  # NaN fails both
        bad_time = ~(np.isfinite(times) & (times >= 0.0))
        bad = bad_quality | bad_time
        if bad.any():
            at = np.unravel_index(bad.argmax(), bad.shape)
            r, b = resolutions[at[-2]], bitrates[at[-1]]
            if bad_quality[at]:
                raise LadderError(f"grid quality at ({r}, {b}) out of range: {qualities[at]}")
            raise LadderError(f"grid time at ({r}, {b}) out of range: {times[at]}")
        object.__setattr__(self, "resolutions", resolutions)
        object.__setattr__(self, "bitrates", bitrates)
        object.__setattr__(self, "qualities", qualities)
        object.__setattr__(self, "times", times)

    @classmethod
    def from_entries(cls, resolutions: Sequence[int], bitrates: Sequence[float],
                     entries: Mapping[tuple[int, float], tuple[float, float]]) -> "PredictionGrid":
        """The grid of a mapping that holds every (resolution, bitrate) pair,
        its numbers read as floats."""
        values = []
        for r, b in product(resolutions, bitrates):
            if (r, b) not in entries:
                raise LadderError(f"grid is missing entry for ({r}, {b})")
            values.append(entries[r, b])
        values = np.array(values, np.float64).reshape(len(resolutions), len(bitrates), 2)
        return cls(resolutions, bitrates, values[..., 0], values[..., 1])

    @cached_property
    def entries(self) -> Mapping[tuple, tuple[float, float]]:
        keys = product(*map(range, self.qualities.shape[:-2]), self.resolutions, self.bitrates)
        pairs = zip(self.qualities.ravel().tolist(), self.times.ravel().tolist())
        return MappingProxyType(dict(zip(keys, pairs)))


def predict_grid(
    quality_model: ForestModel,
    time_model: ForestModel,
    features: SegmentFeatures | Sequence[SegmentFeatures],
    resolutions: Sequence[int],
    bitrates: Sequence[float],
) -> PredictionGrid:
    """Evaluate both models over the full resolution x bitrate cross product,
    for one segment's features, or for each of a sequence of segments' into
    one grid with a segment axis; either way with one ``predict`` per model."""
    if quality_model.vsr_tag != time_model.vsr_tag:
        raise ModelMismatch(
            f"models disagree on vsr_tag: {quality_model.vsr_tag!r} vs {time_model.vsr_tag!r}"
        )
    if quality_model.target_kind != "quality" or time_model.target_kind != "time":
        raise ModelMismatch(
            f"expected (quality, time) models, got "
            f"({quality_model.target_kind!r}, {time_model.target_kind!r})"
        )
    resolutions, bitrates = sorted(resolutions), sorted(bitrates)
    shape = (len(resolutions), len(bitrates))
    if isinstance(features, Sequence):
        shape = (len(features), *shape)
    else:
        features = (features,)
    x = feature_rows(features, resolutions, bitrates)
    return PredictionGrid(resolutions, bitrates, predict(quality_model, x).reshape(shape),
                          predict(time_model, x).reshape(shape))


class Decisions(NamedTuple):
    """Each segment's ladder as arrays indexed ``[segment, rung]``, one rung
    per target bitrate: the chosen resolution, its predicted quality and time,
    whether no resolution fit the budget, and whether pruning kept the rung."""

    bitrates: tuple[float, ...]
    resolutions: np.ndarray
    qualities: np.ndarray
    times: np.ndarray
    over_budget: np.ndarray
    kept: np.ndarray
    params: LadderParams

    @classmethod
    def of(cls, ladder: Ladder) -> "Decisions":
        """One ladder as one segment's decisions, every rung kept, each value as it is."""
        columns = np.array([[(rep.resolution, rep.predicted_vmaf, rep.predicted_time, rep.over_budget)
                             for rep in ladder.reps]], dtype=object)
        return cls(ladder.bitrates, *np.moveaxis(columns, -1, 0), np.ones(columns.shape[:2], bool),
                   ladder.params)


def _check_jnd(v_j: float, v_t: float) -> None:
    if not isinstance(v_j, numbers.Real):
        raise LadderError(f"the noticeable-difference step must be a number, got {v_j!r}")
    if not v_j > 0:
        raise LadderError(f"the noticeable-difference step must be positive, got {v_j}")
    if not isinstance(v_t, numbers.Real) or math.isnan(v_t):
        raise LadderError(f"the perceptually-lossless cap must be a number, got {v_t}")


def _jnd_kept(qualities: np.ndarray, v_j: float, v_t: float) -> np.ndarray:
    """Which rungs of each row of ``qualities`` pruning keeps: one scan over
    the columns, with each row's last kept quality and whether it has stopped."""
    kept = np.zeros(qualities.shape, bool)
    kept[:, :1] = True
    last = qualities[:, :1]
    going = ~(last >= v_t)
    for j in range(1, qualities.shape[1]):
        quality = qualities[:, j:j + 1]
        keep = going & (quality - last >= v_j)
        kept[:, j:j + 1] = keep
        last = np.where(keep, quality, last)
        going &= ~(keep & (quality >= v_t))
    return kept


def decide(grid: PredictionGrid, bitrates: Sequence[float] | None = None, tau_l: float = math.inf,
           vsr_tag: str = "none", v_j: float | None = None, v_t: float | None = None) -> Decisions:
    """Every segment's ladder of ``grid``, with or without a segment axis: per
    target bitrate (ascending; all the grid's by default) one masked argmax
    over the resolution axis, whose first maximum is the lower resolution,
    else the first minimum of time; then, if ``v_j`` is given, :func:`prune_jnd`'s
    scan, with the same float tests, over the rung columns of all segments.
    The arguments are checked first: the targets (each in the grid, at least
    one, none twice, as :class:`Ladder` words it), then ``tau_l``, ``v_j``, ``v_t``."""
    targets = grid.bitrates if bitrates is None else tuple(sorted(bitrates))
    for b in targets:
        if b not in grid.bitrates:
            raise UnknownBitrate(f"bitrate {b} is not in the grid")
    if not targets:
        raise EmptyLadder("a ladder needs at least one representation")
    for a, b in zip(targets, targets[1:]):
        if not a < b:
            raise UnsortedLadder(f"bitrates must strictly increase, got {a} then {b}")
    if not tau_l > 0:
        raise LadderError(f"latency budget must be positive, got {tau_l}")
    if v_j is not None:
        _check_jnd(v_j, v_t)
    columns = list(map(grid.bitrates.index, targets))
    shape = (-1, *grid.qualities.shape[-2:])
    qualities, times = grid.qualities.reshape(shape)[..., columns], grid.times.reshape(shape)[..., columns]
    fits = times <= tau_l
    over_budget = ~fits.any(axis=1)
    rows = np.where(over_budget, times.argmin(axis=1),
                    np.where(fits, qualities, -np.inf).argmax(axis=1))[:, None]
    qualities = np.take_along_axis(qualities, rows, 1)[:, 0]
    kept = np.ones(qualities.shape, bool) if v_j is None else _jnd_kept(qualities, v_j, v_t)
    return Decisions(targets, np.array(grid.resolutions)[rows[:, 0]], qualities,
                     np.take_along_axis(times, rows, 1)[:, 0], over_budget, kept,
                     LadderParams(tau_l, v_j, None if v_j is None else v_t, vsr_tag))


def select_resolution(grid: PredictionGrid, bitrate: float, tau_l: float) -> ResolutionChoice:
    """Best-quality feasible resolution for one target bitrate.

    Feasible means predicted time <= ``tau_l``; quality ties break to the
    lower resolution.  If nothing is feasible the cheapest resolution is
    returned flagged ``over_budget``.  ``bitrate`` must equal one of the
    grid's bitrates exactly.
    """
    rep = build_ladder(grid, (bitrate,), tau_l).reps[0]
    return ResolutionChoice(rep.resolution, rep.over_budget)


def build_ladder(
    grid: PredictionGrid,
    bitrates: Sequence[float] | None = None,
    tau_l: float = math.inf,
    vsr_tag: str = "none",
) -> Ladder:
    """One segment's :func:`decide`, unpruned: one annotated representation
    per bitrate, ascending, at the resolution :func:`select_resolution` describes."""
    if grid.qualities.ndim != 2:
        raise LadderError("a ladder is built from one segment's grid")
    decided = decide(grid, bitrates, tau_l, vsr_tag)
    reps = map(Representation, decided.resolutions[0].tolist(), decided.bitrates,
               decided.qualities[0].tolist(), decided.times[0].tolist(), decided.over_budget[0].tolist())
    return Ladder(tuple(reps), decided.params)


def prune_jnd(ladder: Ladder, v_j: float, v_t: float) -> Ladder:
    """Drop rungs whose predicted quality is not noticeably better.

    Keeps the first rung unconditionally, then keeps a rung only when its
    predicted quality beats the last kept rung's by >= ``v_j``; returns as
    soon as a kept rung reaches ``v_t``.  Output preserves input order and
    is a subsequence of the input.
    """
    _check_jnd(v_j, v_t)
    for rep in ladder.reps:
        if rep.predicted_vmaf is None:
            raise MissingPrediction(
                f"representation at {rep.bitrate} Mbps lacks a predicted quality"
            )
    kept = _jnd_kept(np.array([[rep.predicted_vmaf for rep in ladder.reps]], np.float64), v_j, v_t)
    return Ladder(tuple(compress(ladder.reps, kept[0].tolist())), replace(ladder.params, v_j=v_j, v_t=v_t))


def default_hls_ladder(
    bitrates: Sequence[float],
    pairing: Iterable[tuple[float, int]] | None = None,
    vsr_tag: str = "none",
) -> Ladder:
    """The fixed baseline ladder: every bitrate at its configured resolution.

    No predictions are attached.  ``pairing`` overrides the built-in table
    one-for-one; a bitrate without a pairing raises :class:`PairingMissing`.
    """
    if not bitrates:
        raise PairingMissing("no bitrates supplied")
    table = dict(DEFAULT_HLS_PAIRING if pairing is None else pairing)
    reps = []
    for b in sorted(bitrates):
        if b not in table:
            raise PairingMissing(f"no resolution is paired with bitrate {b} Mbps")
        reps.append(Representation(resolution=table[b], bitrate=b))
    return Ladder(tuple(reps), LadderParams(vsr_tag=vsr_tag))


def load_pairing_csv(source: Iterable[str]) -> tuple[tuple[float, int], ...]:
    """Read a ``bitrate_mbps,resolution`` pairing file (:mod:`.table` conventions).

    Both values must be positive and each bitrate may appear only once.
    """
    linenos, columns, _, error = read_columns(source, ("bitrate_mbps", "resolution"), PairingMissing)
    table: dict[float, int] = {}
    for lineno, bitrate_s, resolution_s in zip(linenos, *columns):
        try:
            bitrate, resolution = finite_float(bitrate_s), int(resolution_s)
        except ValueError as exc:
            raise PairingMissing(f"line {lineno}: {exc}") from None
        if bitrate <= 0 or resolution <= 0:
            raise PairingMissing(f"line {lineno}: bitrate and resolution must be positive, "
                                 f"got {bitrate}, {resolution}")
        if bitrate in table:
            raise PairingMissing(f"line {lineno}: duplicate bitrate {bitrate}")
        table[bitrate] = resolution
    if error is not None:
        raise error
    return tuple(table.items())


# The keys of a manifest and of each of its rungs, in the order they are
# written; :func:`manifest_texts` adds ``config``.
_MANIFEST_KEYS = ("segment_id", "vsr_tag", "tau_L", "v_J", "v_T", "reps", "config")
_REP_KEYS = ("bitrate_mbps", "resolution", "predicted_vmaf", "predicted_time_s", "over_budget")
_MANIFEST_TEXT = "{{\n" + ",\n".join(f'  "{key}": {{}}' for key in _MANIFEST_KEYS) + "\n}}\n"
_REP_TEXT = "    {{\n" + ",\n".join(f'      "{key}": {{}}' for key in _REP_KEYS) + "\n    }}"


def ladder_to_manifest(ladder: Ladder, segment_id: str) -> dict:
    """Wire-format manifest for one segment's ladder, ``config`` aside: the
    document whose text :func:`manifest_texts` writes."""
    params = ladder.params
    reps = [dict(zip(_REP_KEYS, (rep.bitrate, rep.resolution, rep.predicted_vmaf, rep.predicted_time,
                                 rep.over_budget))) for rep in ladder.reps]
    tau_l = "inf" if math.isinf(params.tau_l) else params.tau_l  # JSON has no infinity
    return dict(zip(_MANIFEST_KEYS, (segment_id, params.vsr_tag, tau_l, params.v_j, params.v_t, reps)))


def manifest_texts(segment_ids: Sequence[str], decisions: Decisions, config_doc: dict) -> list[str]:
    """The manifest of each segment of ``decisions``, named by ``segment_ids``,
    its kept rungs in order and ``config`` added, as ``json.dumps(...,
    indent=2, allow_nan=False) + "\\n"`` writes it.  An encoded value holds no
    raw newline, so newlines split the one encoding of all the values apart."""
    params, kept = decisions.params, decisions.kept
    values = [params.vsr_tag, "inf" if math.isinf(params.tau_l) else params.tau_l, params.v_j, params.v_t,
              *segment_ids]
    values += map(decisions.bitrates.__getitem__, kept.nonzero()[1].tolist())
    for column in decisions[1:5]:  # resolutions, qualities, times, over_budget
        values += column[kept].tolist()
    tokens = json.dumps(values, allow_nan=False, separators=("\n", ":"))[1:-1].split("\n")
    at, n = 4 + len(segment_ids), int(kept.sum())
    rungs = list(map(_REP_TEXT.format, *(tokens[at + k * n:at + (k + 1) * n] for k in range(len(_REP_KEYS)))))
    config_text = json.dumps(config_doc, indent=2, allow_nan=False).replace("\n", "\n  ")
    texts, end = [], 0
    for segment_id, count in zip(tokens[4:at], kept.sum(axis=1).tolist()):
        texts.append(_MANIFEST_TEXT.format(segment_id, *tokens[:4], "[\n" + ",\n".join(
            rungs[end:end + count]) + "\n  ]", config_text))
        end += count
    return texts
