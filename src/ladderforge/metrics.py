"""Ladder evaluation: BD metrics plus time, energy and storage accounting.

The rate delta between two rate-distortion curves follows the classic cubic
least-squares construction: fit ``log10(rate) = p(quality)`` to each curve,
average ``p_test - p_ref`` over the overlapping quality range, and convert
with ``(10**avg - 1) * 100``.  Negative means the test scheme needs less
bitrate for equal quality.  The quality delta is the dual fit ``quality =
q(log10 rate)`` averaged over the overlapping log-rate range; positive means
the test scheme gains quality at equal bitrate.  Fits are exact cubic
least squares on four or more points; rank-deficient or unconverged systems
are reported as :class:`DegenerateFit`, never regularised, and so is a fit
whose Vandermonde matrix overflows a float; an empty overlap is an error
rather than an extrapolation, and so is a delta that overflows.  A curve has
one form, :class:`RdCurve`: the checked quality and log10-rate arrays, built
once and read by both BD metrics.  Each fit takes ``np.polyfit``'s own steps
(and the integral ``np.polyval``'s), so the results are bitwise numpy's.

A scheme's evaluated ladders are one :class:`EvaluationTable` of arrays, one
row per representation; :func:`load_evaluation_csv` converts its columns a
block at a time and checks them as masks, and only the first bad row is
checked again on its own to name its fault.
:func:`compare_schemes` cuts every curve of both tables out of one sort and
computes every fit and mean of a comparison at once: one LAPACK call for all
the fits of one curve length, then each Horner step of all the means as one
array operation.  The solve is
``numpy.linalg._umath_linalg.lstsq``, the gufunc that ``np.linalg.lstsq``
itself calls: only it solves a stack of matrices with ``lstsq``'s own LAPACK
routine (``gelsd``) and ``rcond``, where the public function takes one
matrix.  That gufunc is one function only from numpy 2.1 on (numpy 1 split
it into ``lstsq_m`` and ``lstsq_n``), hence the ``numpy>=2.1`` floor.
The batch computes and the one-pair functions name the faults: ``bd_rate``
and ``bd_quality`` go through the same fit and mean with one pair of
curves, and a pair that the batch cannot measure is measured again by them.

Per-segment accounting assumes representations encode concurrently: wall
time is the maximum over rungs, while energy is ``kappa`` joules per second
of summed encode time (energy is additive across concurrent jobs).  Storage
is the bitrate sum times the segment duration, in megabits.  :func:`report_text`
writes ``report.json``: the scheme names, a :class:`SchemeReport`, the config.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from itertools import repeat
from typing import Iterable, Mapping, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import LadderforgeError
from .ladder import EmptyLadder, Ladder
from .table import finite_floats, int_array, ints, read_columns

__all__ = [
    "METRIC_KINDS",
    "RdCurve",
    "EvaluatedRep",
    "EvaluatedSegment",
    "EvaluationTable",
    "SchemeReport",
    "MetricsError",
    "InsufficientPoints",
    "NoOverlap",
    "DegenerateFit",
    "MetricKindMismatch",
    "SegmentMismatch",
    "bd_rate",
    "bd_quality",
    "segment_encode_time",
    "encoding_energy",
    "storage",
    "compare_schemes",
    "report_text",
    "load_evaluation_csv",
]

METRIC_KINDS = ("psnr", "vmaf")
_KIND_INDEX = {kind: k for k, kind in enumerate(METRIC_KINDS)}
_SCALARS = (str, int, float, bool, type(None))  # what the report's flat objects hold

EVALUATION_CSV_HEADER = (
    "segment_id",
    "scheme",
    "bitrate_mbps",
    "resolution",
    "quality_metric",
    "quality",
    "encode_time_s",
)


class MetricsError(LadderforgeError):
    pass


class InsufficientPoints(MetricsError):
    pass


class NoOverlap(MetricsError):
    pass


class DegenerateFit(MetricsError):
    pass


class MetricKindMismatch(MetricsError):
    pass


class SegmentMismatch(MetricsError):
    pass


@dataclass(frozen=True, eq=False)
class RdCurve:
    """One RD curve as the arrays the BD fits read, built by :meth:`from_pairs`
    from at least four points with finite qualities and finite, positive and
    strictly increasing bitrates."""

    qualities: np.ndarray
    log_rates: np.ndarray  # log10 of the bitrates
    metric_kind: str

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]], metric_kind: str) -> "RdCurve":
        pairs = list(pairs)
        for b, q in pairs:  # Python floats: quicker than numpy for a dozen points
            if not (math.isfinite(b) and b > 0):
                raise MetricsError(f"bitrate must be finite and positive, got {b}")
            if not math.isfinite(q):
                raise MetricsError(f"quality must be finite, got {q}")
        if len(pairs) < 4:
            raise InsufficientPoints(f"a curve needs >= 4 points, got {len(pairs)}")
        for (a, _), (b, _) in zip(pairs, pairs[1:]):
            if not a < b:
                raise MetricsError(f"bitrates must strictly increase, got {a} then {b}")
        if metric_kind not in METRIC_KINDS:
            raise MetricKindMismatch(f"metric_kind must be one of {METRIC_KINDS}, got {metric_kind!r}")
        return cls(np.array([q for _, q in pairs]), np.log10([b for b, _ in pairs]), metric_kind)


def _raise_unconverged(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


_RANK_DEFICIENT = "cubic fit is rank-deficient (duplicate abscissae?)"
_EPS = float(np.finfo(np.float64).eps)


def _fit_cubics(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, dict[int, DegenerateFit]]:
    """``np.polyfit(x[i], y[i], 3)`` of every row ``i`` by its own steps, so
    bitwise equal to it, with one LAPACK call: the coefficients, NaN in each
    row whose column scale overflows or vanishes, whose rank is below 4 or
    whose solve does not converge, and that row's :class:`DegenerateFit`."""
    x, y = x + 0.0, y + 0.0
    n, m = x.shape
    fits, errors = np.full((n, 4), np.nan), {}
    with np.errstate(over="ignore", invalid="ignore"):  # checked on the scale
        lhs = np.empty((n, m, 4))  # np.vander(x, 4) of each row
        powers = lhs[..., ::-1]
        powers[..., 0] = 1
        powers[..., 1:] = x[..., None]
        np.multiply.accumulate(powers[..., 1:], axis=-1, out=powers[..., 1:])
        scale = np.sqrt((lhs * lhs).sum(axis=1))
    solvable = []
    for k, row in enumerate(scale.tolist()):  # lists: quicker for 4 values
        if not all(map(math.isfinite, row)):
            errors[k] = DegenerateFit(f"cubic fit overflows float64 (abscissae up to {float(abs(x[k]).max())})")
        elif 0.0 in row:  # every abscissa 0, or too near it to square
            errors[k] = DegenerateFit(_RANK_DEFICIENT)
        else:
            solvable.append(k)
    if not solvable:
        return fits, errors
    scale = scale[solvable]
    try:  # np.linalg.lstsq's own gufunc call, on every row at once
        with np.errstate(call=_raise_unconverged, invalid="call",
                         over="ignore", divide="ignore", under="ignore"):
            coeffs, _residuals, ranks, _sv = _umath_linalg.lstsq(
                lhs[solvable] / scale[:, None], y[solvable, :, None], m * _EPS, signature="ddd->ddid")
    except np.linalg.LinAlgError as exc:
        for k in solvable:  # one at a time, to name the row that failed
            if len(solvable) == 1:
                errors[k] = DegenerateFit(f"cubic fit failed: {exc}")
                continue
            fit, error = _fit_cubics(x[k:k + 1], y[k:k + 1])
            fits[k] = fit[0]
            errors.update((k, e) for e in error.values())
        return fits, errors
    for k, rank, fit in zip(solvable, ranks.tolist(), coeffs[..., 0] / scale):
        if rank == 4:
            fits[k] = fit
        else:
            errors[k] = DegenerateFit(_RANK_DEFICIENT)
    return fits, errors


def _mean_poly_difference(p_test: np.ndarray, p_ref: np.ndarray, lo, hi):
    """The mean of ``p_test - p_ref`` over [lo, hi], row by row:
    ``np.polyint(np.polysub(p_test, p_ref))`` at both ends by ``np.polyval``'s
    Horner steps, each an IEEE operation on every row at once."""
    coeffs = (p_test - p_ref) / np.arange(4, 0, -1)
    at_lo = at_hi = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # a mean that is not finite is checked
        for c in [*np.moveaxis(coeffs, -1, 0), 0.0]:
            at_lo, at_hi = at_lo * lo + c, at_hi * hi + c
        return (at_hi - at_lo) / (hi - lo)


def _rate_change(avg: float) -> float:
    rate = (10.0 ** min(avg, 308.0) - 1.0) * 100.0  # inf above 306.25; ** raises above 308.25
    if not math.isfinite(rate):
        raise MetricsError(f"BD-rate overflows (mean log10 rate difference {avg})")
    return rate


def _bd(x_ref: np.ndarray, y_ref: np.ndarray, x_test: np.ndarray, y_test: np.ndarray) -> float:
    """Mean of the test curve's cubic fit minus the reference's over their
    overlap, or the error that stops it: a degenerate fit (the reference's
    first), no overlap, a mean that is not finite."""
    fits = []
    for x, y in ((x_ref, y_ref), (x_test, y_test)):
        coeffs, errors = _fit_cubics(x[None], y[None])
        if errors:
            raise errors[0]
        fits.append(coeffs[0])
    a, b = x_ref.tolist(), x_test.tolist()  # the same values, quicker to compare
    lo, hi = max(min(a), min(b)), min(max(a), max(b))
    if not lo < hi:
        raise NoOverlap(f"curves do not overlap (intersection [{lo}, {hi}])")
    mean = float(_mean_poly_difference(fits[1], fits[0], float(lo), float(hi)))
    if not math.isfinite(mean):
        raise MetricsError(f"mean curve difference is not finite ({mean})")
    return mean


def _same_kind(reference: RdCurve, test: RdCurve) -> None:
    if reference.metric_kind != test.metric_kind:
        raise MetricKindMismatch(f"curves carry different metrics: "
                                 f"{reference.metric_kind!r} vs {test.metric_kind!r}")


def bd_rate(reference: RdCurve, test: RdCurve) -> float:
    """Average bitrate change of ``test`` vs ``reference`` at equal quality, percent."""
    _same_kind(reference, test)
    return _rate_change(_bd(reference.qualities, reference.log_rates, test.qualities, test.log_rates))


def bd_quality(reference: RdCurve, test: RdCurve) -> float:
    """Average quality change of ``test`` vs ``reference`` at equal bitrate."""
    _same_kind(reference, test)  # quality as a cubic in log10 rate
    return _bd(reference.log_rates, reference.qualities, test.log_rates, test.qualities)


def _check_time(t: float) -> None:
    if not 0 <= t < math.inf:
        raise MetricsError(f"encode time must be finite and nonnegative, got {t}")


def _encode_times(times: Iterable[float]) -> list[float]:
    values = list(times)
    if not values:
        raise EmptyLadder("no representation times supplied")
    for t in values:
        _check_time(t)
    return values


def _check_duration(duration_s: float) -> None:
    if not 0 < duration_s < math.inf:
        raise MetricsError(f"duration must be finite and positive, got {duration_s}")


def _check_kappa(kappa: float) -> None:
    if not 0 < kappa < math.inf:
        raise MetricsError(f"kappa must be finite and positive, got {kappa}")


def segment_encode_time(times: Iterable[float]) -> float:
    """Wall time of one segment under concurrent encoding: the max rung time."""
    return float(max(_encode_times(times)))


def encoding_energy(times: Iterable[float], kappa: float) -> float:
    """Total joules: ``kappa`` times the summed encode seconds."""
    _check_kappa(kappa)
    return float(kappa * sum(_encode_times(times)))


def storage(ladder: Ladder, duration_s: float) -> float:
    """Megabits to store every rung of one segment."""
    _check_duration(duration_s)
    return float(sum(rep.bitrate for rep in ladder.reps) * duration_s)


def _check_rep(bitrate: float, time: float) -> None:
    if not 0 < bitrate < math.inf:
        raise MetricsError(f"bitrate must be finite and positive, got {bitrate}")
    _check_time(time)


@dataclass(frozen=True)
class EvaluatedRep:
    """One encoded rung with measured (or predicted) quality and time."""

    bitrate: float
    resolution: int
    encode_time: float
    qualities: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        _check_rep(self.bitrate, self.encode_time)
        for kind in self.qualities:
            if kind not in METRIC_KINDS:
                raise MetricKindMismatch(f"unknown quality metric {kind!r}")
        object.__setattr__(self, "qualities", dict(self.qualities))


@dataclass(frozen=True)
class EvaluatedSegment:
    """One segment's representations, in any order: see :meth:`EvaluationTable.from_segments`."""

    segment_id: str
    reps: tuple[EvaluatedRep, ...]

    def __post_init__(self):
        if not self.reps:
            raise EmptyLadder(f"segment {self.segment_id!r} has no representations")
        object.__setattr__(self, "reps", tuple(self.reps))


@dataclass(frozen=True, eq=False)
class EvaluationTable:
    """One scheme's evaluated ladders, one row per representation, grouped by
    segment: ``segment`` indexes ``segment_ids``, which are sorted, and
    ``qualities[:, k]`` holds the ``METRIC_KINDS[k]`` quality of the rows where
    ``present[:, k]``.  :func:`load_evaluation_csv` builds it from checked
    rows, sorted by (segment, bitrate, resolution), and :meth:`from_segments`
    from checked representations, in each segment's own order.  The arrays
    are read-only."""

    scheme: str
    segment_ids: tuple[str, ...]
    segment: np.ndarray
    bitrate: np.ndarray
    resolution: np.ndarray
    encode_time: np.ndarray
    qualities: np.ndarray
    present: np.ndarray

    def __post_init__(self):
        for f in fields(self)[2:]:
            getattr(self, f.name).flags.writeable = False

    @classmethod
    def from_segments(cls, scheme: str, segments: Iterable[EvaluatedSegment]) -> "EvaluationTable":
        """The table of ``segments``; ``scheme`` names them in the error for a
        segment listed twice or for no segment at all."""
        by_id: dict[str, EvaluatedSegment] = {}
        for seg in segments:
            if seg.segment_id in by_id:
                raise SegmentMismatch(f"{scheme} lists segment {seg.segment_id!r} twice")
            by_id[seg.segment_id] = seg
        if not by_id:
            raise SegmentMismatch(f"{scheme} contains no segments")
        segment_ids = tuple(sorted(by_id))
        rows = [(k, rep) for k, segment_id in enumerate(segment_ids) for rep in by_id[segment_id].reps]
        reps = [rep for _, rep in rows]
        return cls(scheme, segment_ids, np.array([k for k, _ in rows]),
                   np.array([rep.bitrate for rep in reps], np.float64), int_array([rep.resolution for rep in reps]),
                   np.array([rep.encode_time for rep in reps], np.float64),
                   np.array([[rep.qualities.get(kind, math.nan) for kind in METRIC_KINDS] for rep in reps],
                            np.float64),
                   np.array([[kind in rep.qualities for kind in METRIC_KINDS] for rep in reps], bool))


@dataclass(frozen=True)
class SchemeReport:
    """Aggregate comparison of a candidate scheme against a baseline.

    BD fields are means over segments where both curves were fittable and
    overlapped; they are None when no segment qualified.  The relative
    deltas are percentages of the baseline totals, and the mean segment
    time describes the candidate scheme.  A figure that overflows a float
    is None too, since JSON has no infinity.
    """

    bd_rate_psnr: float | None
    bd_rate_vmaf: float | None
    bd_psnr: float | None
    bd_vmaf: float | None
    delta_energy_pct: float | None
    delta_storage_pct: float | None
    mean_segment_time_s: float | None
    segments: tuple[dict, ...] = ()

    def to_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["segments"] = list(self.segments)
        return doc


def report_text(baseline: str, candidate: str, report: SchemeReport, config_doc: dict) -> str:
    """``report.json``'s text, as ``json.dumps(doc, indent=2, allow_nan=False)``
    writes it, which refuses NaN and infinity.  With an indent ``json.dumps``
    takes its pure-Python encoder, so the C encoder writes the flat objects
    instead, one item to a line by the separator; the config goes the slow way."""
    doc = {"baseline": baseline, "candidate": candidate, **report.to_dict()}
    entries = doc.pop("segments")
    if not all(entries) or not all(type(v) in _SCALARS for d in (doc, *entries) for v in d.values()):
        return json.dumps({**doc, "segments": entries, "config": config_doc}, indent=2, allow_nan=False) + "\n"
    head = json.dumps(doc, allow_nan=False, separators=(",\n  ", ": "))[1:-1]
    segments = json.dumps(entries, allow_nan=False, separators=(",\n      ", ": "))[2:-2].replace(
        "},\n      {", "\n    },\n    {\n      ")  # a newline in a string is escaped: these are between entries
    segments = f"[\n    {{\n      {segments}\n    }}\n  ]" if entries else "[]"
    config_text = json.dumps(config_doc, indent=2, allow_nan=False).replace("\n", "\n  ")
    return f'{{\n  {head},\n  "segments": {segments},\n  "config": {config_text}\n}}\n'


def _segment_rows(table: EvaluationTable) -> list[tuple[list[float], list[float]]]:
    """Each segment's encode times and bitrates, in table order."""
    bounds = np.searchsorted(table.segment, np.arange(len(table.segment_ids) + 1)).tolist()
    times, rates = table.encode_time.tolist(), table.bitrate.tolist()
    return [(times[lo:hi], rates[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def _bd_deltas(base: EvaluationTable, cand: EvaluationTable) -> list[tuple[float, float] | MetricsError]:
    """For each segment of the two tables' ids and each metric kind in turn,
    ``(bd_rate(ref, test), bd_quality(ref, test))`` of the baseline's curve
    ``ref`` and the candidate's ``test``, or the first error of those steps:
    the baseline's curve before the candidate's, then the rate fits and their
    overlap, then the quality fits and theirs.  Curve ``c`` is ``(segment *
    len(METRIC_KINDS) + kind) * 2 + side``: one sort of both tables' present
    qualities by it, then by bitrate, puts each curve's points together in
    bitrate order.  Pairs whose curves pass the cheap checks (four points or
    more, finite qualities, no bitrate twice) are fitted and averaged at once;
    any other pair, or one whose means are not finite or whose curves do not
    overlap, goes through :func:`bd_rate` and :func:`bd_quality`, which name its fault."""
    keys, rates, qualities = [], [], []
    for side, table in enumerate((base, cand)):
        row, kind = np.nonzero(table.present)
        keys.append((table.segment[row] * len(METRIC_KINDS) + kind) * 2 + side)
        rates.append(table.bitrate[row])
        qualities.append(table.qualities[row, kind])
    key, rate, quality = map(np.concatenate, (keys, rates, qualities))
    order = np.lexsort((rate, key))
    key, rate, quality = key[order], rate[order], quality[order]
    log_rate = np.log10(rate)
    n_curves = 2 * len(METRIC_KINDS) * len(base.segment_ids)
    count = np.bincount(key, minlength=n_curves)
    start = np.cumsum(count) - count
    tied = key[1:][(key[1:] == key[:-1]) & (rate[1:] == rate[:-1])]  # one bitrate at two resolutions
    fittable = count >= 4
    fittable[key[~np.isfinite(quality)]] = fittable[tied] = False
    pairs = np.flatnonzero(fittable[0::2] & fittable[1::2])
    fitted = np.repeat(np.isin(np.arange(n_curves // 2), pairs), 2)
    coeffs = np.full((n_curves, 2, 4), np.nan)  # [curve, the rate fit then the quality fit]; NaN if degenerate
    ends = np.zeros((n_curves, 2, 2))  # the least and the greatest abscissa of each fit
    for m in np.unique(count[fitted]).tolist():
        curves = np.flatnonzero(fitted & (count == m))
        at = start[curves][:, None] + np.arange(m)
        x = np.concatenate([quality[at], log_rate[at]])
        coeffs[curves] = _fit_cubics(x, np.concatenate([log_rate[at], quality[at]]))[0].reshape(
            2, len(curves), 4).swapaxes(0, 1)
        ends[curves] = np.stack([x.min(axis=1), x.max(axis=1)], -1).reshape(2, len(curves), 2).swapaxes(0, 1)
    ref, test = 2 * pairs, 2 * pairs + 1
    lo, hi = np.maximum(ends[ref, :, 0], ends[test, :, 0]), np.minimum(ends[ref, :, 1], ends[test, :, 1])
    means = np.full((n_curves // 2, 2), np.nan)
    means[pairs] = np.where(lo < hi, _mean_poly_difference(coeffs[test], coeffs[ref], lo, hi), np.nan)
    out: list = []
    for p, (rate_mean, quality_mean) in enumerate(means.tolist()):
        try:
            if math.isfinite(rate_mean) and math.isfinite(quality_mean):
                out.append((_rate_change(rate_mean), quality_mean))
                continue
            ref_curve, test_curve = (RdCurve.from_pairs(
                zip(rate[start[c]:start[c] + count[c]].tolist(), quality[start[c]:start[c] + count[c]].tolist()),
                METRIC_KINDS[p % len(METRIC_KINDS)]) for c in (2 * p, 2 * p + 1))
            out.append((bd_rate(ref_curve, test_curve), bd_quality(ref_curve, test_curve)))
        except MetricsError as exc:
            out.append(exc)
    return out


def compare_schemes(
    baseline: EvaluationTable | Iterable[EvaluatedSegment],
    candidate: EvaluationTable | Iterable[EvaluatedSegment],
    *,
    kappa: float = 1.0,
    segment_duration_s: float = 4.0,
) -> SchemeReport:
    """Compare two evaluated ladder sets over identical segments, each a table
    or the segments :meth:`EvaluationTable.from_segments` makes one of.

    Per-segment BD failures (too few points, no overlap, degenerate fits)
    are recorded in the breakdown and excluded from the averages instead of
    aborting the aggregate.
    """
    _check_duration(segment_duration_s)
    base, cand = (scheme if isinstance(scheme, EvaluationTable) else EvaluationTable.from_segments(label, scheme)
                  for scheme, label in ((baseline, "baseline"), (candidate, "candidate")))
    if set(base.segment_ids) != set(cand.segment_ids):
        only_base = sorted(set(base.segment_ids) - set(cand.segment_ids))
        only_cand = sorted(set(cand.segment_ids) - set(base.segment_ids))
        raise SegmentMismatch(
            f"segment sets differ (baseline-only {only_base}, candidate-only {only_cand})"
        )
    _check_kappa(kappa)
    deltas = iter(_bd_deltas(base, cand))
    bd_sums = {f"bd{m}_{k}": [] for m in ("_rate", "") for k in METRIC_KINDS}
    breakdown: list[dict] = []
    base_energy = base_storage = 0.0
    cand_energy = cand_storage = 0.0
    cand_times: list[float] = []
    for segment_id, (b_times, b_rates), (c_times, c_rates) in zip(
            base.segment_ids, _segment_rows(base), _segment_rows(cand)):
        entry: dict = {"segment_id": segment_id}
        for kind in METRIC_KINDS:
            found = next(deltas)
            if isinstance(found, MetricsError):
                entry[f"bd_error_{kind}"] = str(found)
                continue
            for name, value in zip((f"bd_rate_{kind}", f"bd_{kind}"), found):
                entry[name] = value
                bd_sums[name].append(value)
        # Every encode time was checked finite and nonnegative with its row.
        entry["baseline_time_s"] = float(max(b_times))
        entry["candidate_time_s"] = float(max(c_times))
        cand_times.append(entry["candidate_time_s"])
        base_energy += float(kappa * sum(b_times))
        cand_energy += float(kappa * sum(c_times))
        base_storage += float(sum(b_rates)) * segment_duration_s
        cand_storage += float(sum(c_rates)) * segment_duration_s
        breakdown.append(entry)
    if base_energy == 0 or base_storage == 0:
        raise MetricsError("baseline energy/storage must be nonzero for relative deltas")

    def _finite(value: float) -> float | None:
        return value if math.isfinite(value) else None

    def _mean(values: list[float]) -> float | None:
        with np.errstate(over="ignore"):  # an overflowing mean is None
            return _finite(float(np.mean(values))) if values else None

    return SchemeReport(
        **{name: _mean(values) for name, values in bd_sums.items()},
        delta_energy_pct=_finite(100.0 * (cand_energy - base_energy) / base_energy),
        delta_storage_pct=_finite(100.0 * (cand_storage - base_storage) / base_storage),
        mean_segment_time_s=_mean(cand_times),
        segments=tuple(breakdown),
    )


def _line_error(lineno: int, bitrate: float, metric: str, time: float, first_time: float | None) -> MetricsError:
    """The first check after parsing that the row on line ``lineno`` fails, every earlier
    row being valid, in the order a row-by-row reader runs them; ``first_time`` is the
    encode time of its representation's first row, None on that row."""
    try:
        _check_rep(bitrate, time) if first_time is None else _check_time(time)
    except MetricsError as exc:
        return SegmentMismatch(f"line {lineno}: {exc}")
    if time != first_time:
        return SegmentMismatch(f"line {lineno}: encode time {time} contradicts "
                               f"{first_time} for the same representation")
    return SegmentMismatch(f"line {lineno}: duplicate {metric} quality for one representation")


def _kinds(texts: Sequence[str]) -> tuple[np.ndarray, MetricKindMismatch | None]:
    """The ``METRIC_KINDS`` index of each text, up to the first that names none, and its error."""
    kinds = np.fromiter(map(_KIND_INDEX.get, texts, repeat(-1)), np.intp, len(texts))
    if kinds.size and kinds.min() < 0:
        at = int(kinds.argmin())
        return kinds[:at], MetricKindMismatch(f"unknown quality metric {texts[at]!r}")
    return kinds, None


def load_evaluation_csv(source: Iterable[str]) -> EvaluationTable:
    """Read one scheme's evaluated ladders (:mod:`.table` conventions) into its
    :class:`EvaluationTable`.

    Rows with the same (segment, bitrate, resolution) describe one
    representation; each may contribute one quality metric and all must
    agree on the encode time.  The file must contain exactly one scheme
    label.  The number and metric columns are converted a block at a time,
    up to the first row with a number that does not parse or an unknown
    metric, so that their texts are never held at once.  Each other check is
    a mask over the rows, and one stable sort groups them; the first bad
    row's error is the one that a row-by-row reader meets first.
    """
    # In the order a row is read: metric, bitrate, resolution, time, quality.
    parsers = {4: _kinds, 2: finite_floats, 3: ints, 6: finite_floats, 5: finite_floats}
    linenos, columns, late = read_columns(source, EVALUATION_CSV_HEADER, SegmentMismatch, parsers)
    ids, schemes, bitrate, resolution, kind, quality, time = columns
    n = len(linenos)
    segment_ids = sorted(set(ids))
    index = dict(zip(segment_ids, range(len(segment_ids))))
    segment = np.fromiter(map(index.__getitem__, ids), np.intp, n)
    # Sorted by representation, then metric kind, then line: each group's
    # rows are together, and a second row of one kind follows the first.
    order = np.lexsort((kind, np.unique(resolution, return_inverse=True)[1], bitrate, segment))
    keys = [column[order] for column in (segment, bitrate, resolution, kind)]
    same = np.logical_and.reduce([key[1:] == key[:-1] for key in keys[:3]])
    new = np.concatenate([[True], ~same])[:n]
    group = np.cumsum(new) - 1
    first = np.empty(n, np.intp)  # each row's representation's first row
    first[order] = np.minimum.reduceat(order, np.flatnonzero(new))[group]
    duplicate = np.zeros(n, bool)
    duplicate[order[1:]] = same & (keys[3][1:] == keys[3][:-1])
    repeated = first != np.arange(n)
    bad = (time < 0) | np.where(repeated, (time != time[first]) | duplicate, bitrate <= 0)
    if bad.any():
        at = int(bad.argmax())
        raise _line_error(linenos[at], bitrate[at].item(), METRIC_KINDS[kind[at]], time[at].item(),
                          time[first[at]].item() if repeated[at] else None)
    if late is not None:
        raise late
    if len(set(schemes)) != 1:
        raise SegmentMismatch(f"evaluation CSV must hold exactly one scheme, got {sorted(set(schemes))}")
    one = order[new]  # one row of each representation, in table order
    qualities = np.full((len(one), len(METRIC_KINDS)), np.nan)
    present = np.zeros(qualities.shape, bool)
    qualities[group, keys[3]] = quality[order]
    present[group, keys[3]] = True
    return EvaluationTable(schemes[0], tuple(segment_ids), segment[one], bitrate[one], resolution[one],
                           time[one], qualities, present)
