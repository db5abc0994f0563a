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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .complexity import SegmentFeatures
from .errors import LadderforgeError
from .forest import N_FEATURES, ForestModel, feature_vector, predict
from .table import finite_float, read_table

__all__ = [
    "DEFAULT_HLS_PAIRING",
    "Representation",
    "LadderParams",
    "Ladder",
    "PredictionGrid",
    "ResolutionChoice",
    "LadderError",
    "EmptyLadder",
    "UnsortedLadder",
    "MissingPrediction",
    "UnknownBitrate",
    "PairingMissing",
    "ModelMismatch",
    "predict_grid",
    "select_resolution",
    "build_ladder",
    "prune_jnd",
    "default_hls_ladder",
    "load_pairing_csv",
    "ladder_to_manifest",
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


@dataclass(frozen=True)
class PredictionGrid:
    """Predicted (quality, time) for every (resolution, bitrate) pair."""

    resolutions: tuple[int, ...]
    bitrates: tuple[float, ...]
    entries: Mapping[tuple[int, float], tuple[float, float]]

    def __post_init__(self):
        resolutions = tuple(self.resolutions)
        bitrates = tuple(self.bitrates)
        if not resolutions or not bitrates:
            raise LadderError("grid needs at least one resolution and one bitrate")
        if list(resolutions) != sorted(resolutions) or list(bitrates) != sorted(bitrates):
            raise LadderError("grid axes must be sorted ascending")
        entries = dict(self.entries)
        for r in resolutions:
            for b in bitrates:
                if (r, b) not in entries:
                    raise LadderError(f"grid is missing entry for ({r}, {b})")
                quality, time = entries[(r, b)]
                if not (math.isfinite(quality) and 0.0 <= quality <= 100.0):
                    raise LadderError(f"grid quality at ({r}, {b}) out of range: {quality}")
                if not (math.isfinite(time) and time >= 0.0):
                    raise LadderError(f"grid time at ({r}, {b}) out of range: {time}")
        object.__setattr__(self, "resolutions", resolutions)
        object.__setattr__(self, "bitrates", bitrates)
        object.__setattr__(self, "entries", entries)

    def quality(self, resolution: int, bitrate: float) -> float:
        return self.entries[(resolution, bitrate)][0]

    def time(self, resolution: int, bitrate: float) -> float:
        return self.entries[(resolution, bitrate)][1]


def predict_grid(
    quality_model: ForestModel,
    time_model: ForestModel,
    features: SegmentFeatures,
    resolutions: Sequence[int],
    bitrates: Sequence[float],
) -> PredictionGrid:
    """Evaluate both models over the full resolution x bitrate cross product."""
    if quality_model.vsr_tag != time_model.vsr_tag:
        raise ModelMismatch(
            f"models disagree on vsr_tag: {quality_model.vsr_tag!r} vs {time_model.vsr_tag!r}"
        )
    if quality_model.target_kind != "quality" or time_model.target_kind != "time":
        raise ModelMismatch(
            f"expected (quality, time) models, got "
            f"({quality_model.target_kind!r}, {time_model.target_kind!r})"
        )
    cells = [(r, b) for r in resolutions for b in bitrates]
    x = np.array([feature_vector(features, r, b) for r, b in cells]).reshape(-1, N_FEATURES)
    quality, time = predict(quality_model, x).tolist(), predict(time_model, x).tolist()
    entries = dict(zip(cells, zip(quality, time)))
    return PredictionGrid(tuple(sorted(resolutions)), tuple(sorted(bitrates)), entries)


def select_resolution(grid: PredictionGrid, bitrate: float, tau_l: float) -> ResolutionChoice:
    """Best-quality feasible resolution for one target bitrate.

    Feasible means predicted time <= ``tau_l``; quality ties break to the
    lower resolution.  If nothing is feasible the cheapest resolution is
    returned flagged ``over_budget``.  ``bitrate`` must equal one of the
    grid's bitrates exactly.
    """
    if bitrate not in grid.bitrates:
        raise UnknownBitrate(f"bitrate {bitrate} is not in the grid")
    if tau_l <= 0:
        raise LadderError(f"latency budget must be positive, got {tau_l}")
    # max and min keep the first of equal keys, and resolutions ascend.
    feasible = [r for r in grid.resolutions if grid.time(r, bitrate) <= tau_l]
    if not feasible:
        return ResolutionChoice(min(grid.resolutions, key=lambda r: grid.time(r, bitrate)), True)
    return ResolutionChoice(max(feasible, key=lambda r: grid.quality(r, bitrate)), False)


def build_ladder(
    grid: PredictionGrid,
    bitrates: Sequence[float] | None = None,
    tau_l: float = math.inf,
    vsr_tag: str = "none",
) -> Ladder:
    """One annotated representation per bitrate, ascending."""
    targets = grid.bitrates if bitrates is None else tuple(sorted(bitrates))
    reps = []
    for b in targets:
        choice = select_resolution(grid, b, tau_l)
        quality, time = grid.entries[(choice.resolution, b)]
        reps.append(
            Representation(
                resolution=choice.resolution,
                bitrate=b,
                predicted_vmaf=quality,
                predicted_time=time,
                over_budget=choice.over_budget,
            )
        )
    return Ladder(tuple(reps), LadderParams(tau_l=tau_l, vsr_tag=vsr_tag))


def prune_jnd(ladder: Ladder, v_j: float, v_t: float) -> Ladder:
    """Drop rungs whose predicted quality is not noticeably better.

    Keeps the first rung unconditionally, then keeps a rung only when its
    predicted quality beats the last kept rung's by >= ``v_j``; returns as
    soon as a kept rung reaches ``v_t``.  Output preserves input order and
    is a subsequence of the input.
    """
    if v_j <= 0:
        raise LadderError(f"the noticeable-difference step must be positive, got {v_j}")
    for rep in ladder.reps:
        if rep.predicted_vmaf is None:
            raise MissingPrediction(
                f"representation at {rep.bitrate} Mbps lacks a predicted quality"
            )
    kept: list[Representation] = []
    for rep in ladder.reps:
        if not kept or rep.predicted_vmaf - kept[-1].predicted_vmaf >= v_j:
            kept.append(rep)
            if rep.predicted_vmaf >= v_t:
                break
    return Ladder(tuple(kept), replace(ladder.params, v_j=v_j, v_t=v_t))


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
    table: dict[float, int] = {}
    for lineno, row in read_table(source, ("bitrate_mbps", "resolution"), PairingMissing):
        try:
            bitrate, resolution = finite_float(row[0]), int(row[1])
        except ValueError as exc:
            raise PairingMissing(f"line {lineno}: {exc}") from None
        if bitrate <= 0 or resolution <= 0:
            raise PairingMissing(f"line {lineno}: bitrate and resolution must be positive, "
                                 f"got {bitrate}, {resolution}")
        if bitrate in table:
            raise PairingMissing(f"line {lineno}: duplicate bitrate {bitrate}")
        table[bitrate] = resolution
    return tuple(table.items())


def ladder_to_manifest(ladder: Ladder, segment_id: str) -> dict:
    """Wire-format manifest for one segment's ladder.

    An infinite latency budget serialises as the string ``"inf"`` because
    JSON has no infinity literal.
    """
    params = ladder.params
    return {
        "segment_id": segment_id,
        "vsr_tag": params.vsr_tag,
        "tau_L": "inf" if math.isinf(params.tau_l) else params.tau_l,
        "v_J": params.v_j,
        "v_T": params.v_t,
        "reps": [
            {
                "bitrate_mbps": rep.bitrate,
                "resolution": rep.resolution,
                "predicted_vmaf": rep.predicted_vmaf,
                "predicted_time_s": rep.predicted_time,
                "over_budget": rep.over_budget,
            }
            for rep in ladder.reps
        ],
    }
