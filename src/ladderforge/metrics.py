"""Ladder evaluation: BD metrics plus time, energy and storage accounting.

The rate delta between two rate-distortion curves follows the classic cubic
least-squares construction: fit ``log10(rate) = p(quality)`` to each curve,
average ``p_test - p_ref`` over the overlapping quality range, and convert
with ``(10**avg - 1) * 100``.  Negative means the test scheme needs less
bitrate for equal quality.  The quality delta is the dual fit ``quality =
q(log10 rate)`` averaged over the overlapping log-rate range; positive means
the test scheme gains quality at equal bitrate.  Fits are exact cubic
least squares on four or more points; rank-deficient or unconverged systems
are reported as :class:`DegenerateFit`, never regularised, an empty overlap is
an error rather than an extrapolation, and so is a delta that overflows.  Each
curve is built once, as arrays, and each fit takes ``np.polyfit``'s own steps
(and the integral ``np.polyval``'s), so the results are bitwise numpy's.

Per-segment accounting assumes representations encode concurrently: wall
time is the maximum over rungs, while energy is ``kappa`` joules per second
of summed encode time (energy is additive across concurrent jobs).  Storage
is the bitrate sum times the segment duration, in megabits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Iterable, Mapping

import numpy as np

from .errors import LadderforgeError
from .ladder import EmptyLadder, Ladder
from .table import finite_float, read_table

__all__ = [
    "METRIC_KINDS",
    "RdPoint",
    "RdCurve",
    "EvaluatedRep",
    "EvaluatedSegment",
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
    "load_evaluation_csv",
]

METRIC_KINDS = ("psnr", "vmaf")

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


@dataclass(frozen=True)
class RdPoint:
    bitrate: float
    quality: float

    def __post_init__(self):
        if not (math.isfinite(self.bitrate) and self.bitrate > 0):
            raise MetricsError(f"bitrate must be finite and positive, got {self.bitrate}")
        if not math.isfinite(self.quality):
            raise MetricsError(f"quality must be finite, got {self.quality}")


@dataclass(frozen=True)
class RdCurve:
    """At least four RD points in strictly increasing bitrate order."""

    points: tuple[RdPoint, ...]
    metric_kind: str

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        pairs = [(p.bitrate, p.quality) for p in self.points]
        object.__setattr__(self, "_arrays", _curve(pairs, self.metric_kind))  # what BD fits

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]], metric_kind: str) -> "RdCurve":
        return cls(tuple(RdPoint(b, q) for b, q in pairs), metric_kind)


Curve = tuple[np.ndarray, np.ndarray]  # one RD curve's (qualities, log10 bitrates)


def _curve(pairs: list[tuple[float, float]], metric_kind: str) -> Curve:
    """The arrays of a curve's (bitrate, quality) pairs, after RdPoint's and
    then RdCurve's checks, in their order and with their messages."""
    for b, q in pairs:  # Python floats: quicker than numpy for a dozen points
        if not (math.isfinite(b) and b > 0 and math.isfinite(q)):
            RdPoint(b, q)  # raises RdPoint's message
    if len(pairs) < 4:
        raise InsufficientPoints(f"a curve needs >= 4 points, got {len(pairs)}")
    for (a, _), (b, _) in zip(pairs, pairs[1:]):
        if not a < b:
            raise MetricsError(f"bitrates must strictly increase, got {a} then {b}")
    if metric_kind not in METRIC_KINDS:
        raise MetricKindMismatch(f"metric_kind must be one of {METRIC_KINDS}, got {metric_kind!r}")
    return np.array([q for _, q in pairs]), np.log10([b for b, _ in pairs])


def _fit_cubic(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``np.polyfit(x, y, 3)`` by its own steps, so bitwise equal to it, with
    a rank below 4 or an unconverged solve raised as :class:`DegenerateFit`."""
    x, y = x + 0.0, y + 0.0
    lhs = np.vander(x, 4)
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    lhs /= scale
    try:
        coeffs, _residuals, rank, _sv = np.linalg.lstsq(lhs, y, len(x) * np.finfo(x.dtype).eps)
    except np.linalg.LinAlgError as exc:
        raise DegenerateFit(f"cubic fit failed: {exc}") from None
    if rank < 4:
        raise DegenerateFit("cubic fit is rank-deficient (duplicate abscissae?)")
    return coeffs / scale


def _overlap(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    a, b = a.tolist(), b.tolist()  # the same values, quicker to compare
    lo = max(min(a), min(b))
    hi = min(max(a), max(b))
    if not lo < hi:
        raise NoOverlap(f"curves do not overlap (intersection [{lo}, {hi}])")
    return float(lo), float(hi)


def _mean_poly_difference(p_test: np.ndarray, p_ref: np.ndarray, lo: float, hi: float) -> float:
    """The mean of ``p_test - p_ref`` over [lo, hi]: ``np.polyint(np.polysub(p_test,
    p_ref))`` at both ends by ``np.polyval``'s Horner steps, on Python floats."""
    at_lo = at_hi = 0.0
    for c in [*((p_test - p_ref) / np.arange(4, 0, -1)).tolist(), 0.0]:
        at_lo, at_hi = at_lo * lo + c, at_hi * hi + c
    return (at_hi - at_lo) / (hi - lo)


def _bd(ref: Curve, test: Curve) -> float:
    """Mean of ``test``'s cubic fit minus ``ref``'s over the overlap of their
    abscissae, where a curve is read as ``(x, y)``."""
    p_ref, p_test = _fit_cubic(*ref), _fit_cubic(*test)
    mean = _mean_poly_difference(p_test, p_ref, *_overlap(ref[0], test[0]))
    if not math.isfinite(mean):
        raise MetricsError(f"mean curve difference is not finite ({mean})")
    return mean


def _bd_rate(ref: Curve, test: Curve) -> float:
    avg = _bd(ref, test)
    rate = (10.0 ** min(avg, 308.0) - 1.0) * 100.0  # inf above 306.25; ** raises above 308.25
    if not math.isfinite(rate):
        raise MetricsError(f"BD-rate overflows (mean log10 rate difference {avg})")
    return rate


def _bd_quality(ref: Curve, test: Curve) -> float:
    return _bd(ref[::-1], test[::-1])  # quality as a cubic in log10 rate


def _curves_of(reference: RdCurve, test: RdCurve) -> tuple[Curve, Curve]:
    if reference.metric_kind != test.metric_kind:
        raise MetricKindMismatch(f"curves carry different metrics: "
                                 f"{reference.metric_kind!r} vs {test.metric_kind!r}")
    return reference._arrays, test._arrays


def bd_rate(reference: RdCurve, test: RdCurve) -> float:
    """Average bitrate change of ``test`` vs ``reference`` at equal quality, percent."""
    return _bd_rate(*_curves_of(reference, test))


def bd_quality(reference: RdCurve, test: RdCurve) -> float:
    """Average quality change of ``test`` vs ``reference`` at equal bitrate."""
    return _bd_quality(*_curves_of(reference, test))


def segment_encode_time(times: Iterable[float]) -> float:
    """Wall time of one segment under concurrent encoding: the max rung time."""
    values = list(times)
    if not values:
        raise EmptyLadder("no representation times supplied")
    if any(t < 0 for t in values):
        raise MetricsError("encode times must be nonnegative")
    return float(max(values))


def encoding_energy(times: Iterable[float], kappa: float) -> float:
    """Total joules: ``kappa`` times the summed encode seconds."""
    if kappa <= 0:
        raise MetricsError(f"kappa must be positive, got {kappa}")
    values = list(times)
    if not values:
        raise EmptyLadder("no representation times supplied")
    if any(t < 0 for t in values):
        raise MetricsError("encode times must be nonnegative")
    return float(kappa * sum(values))


def storage(ladder: Ladder, duration_s: float) -> float:
    """Megabits to store every rung of one segment."""
    if duration_s <= 0:
        raise MetricsError(f"duration must be positive, got {duration_s}")
    return float(sum(rep.bitrate for rep in ladder.reps) * duration_s)


@dataclass(frozen=True)
class EvaluatedRep:
    """One encoded rung with measured (or predicted) quality and time."""

    bitrate: float
    resolution: int
    encode_time: float
    qualities: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.bitrate <= 0:
            raise MetricsError(f"bitrate must be positive, got {self.bitrate}")
        if self.encode_time < 0:
            raise MetricsError(f"encode time must be nonnegative, got {self.encode_time}")
        for kind in self.qualities:
            if kind not in METRIC_KINDS:
                raise MetricKindMismatch(f"unknown quality metric {kind!r}")
        object.__setattr__(self, "qualities", dict(self.qualities))


@dataclass(frozen=True)
class EvaluatedSegment:
    segment_id: str
    reps: tuple[EvaluatedRep, ...]

    def __post_init__(self):
        if not self.reps:
            raise EmptyLadder(f"segment {self.segment_id!r} has no representations")
        object.__setattr__(self, "reps", tuple(self.reps))

    def curve(self, metric_kind: str) -> Curve:
        """The checked arrays of this segment's RD curve for one metric."""
        pairs = sorted((rep.bitrate, rep.qualities[metric_kind]) for rep in self.reps
                       if metric_kind in rep.qualities)
        return _curve(pairs, metric_kind)

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(rep.encode_time for rep in self.reps)

    @property
    def total_bitrate(self) -> float:
        return float(sum(rep.bitrate for rep in self.reps))


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


def _by_id(segments: Iterable[EvaluatedSegment], label: str) -> dict[str, EvaluatedSegment]:
    out: dict[str, EvaluatedSegment] = {}
    for seg in segments:
        if seg.segment_id in out:
            raise SegmentMismatch(f"{label} lists segment {seg.segment_id!r} twice")
        out[seg.segment_id] = seg
    if not out:
        raise SegmentMismatch(f"{label} contains no segments")
    return out


def compare_schemes(
    baseline: Iterable[EvaluatedSegment],
    candidate: Iterable[EvaluatedSegment],
    *,
    kappa: float = 1.0,
    segment_duration_s: float = 4.0,
) -> SchemeReport:
    """Compare two evaluated ladder sets over identical segments.

    Per-segment BD failures (too few points, no overlap, degenerate fits)
    are recorded in the breakdown and excluded from the averages instead of
    aborting the aggregate.
    """
    base = _by_id(baseline, "baseline")
    cand = _by_id(candidate, "candidate")
    if set(base) != set(cand):
        only_base = sorted(set(base) - set(cand))
        only_cand = sorted(set(cand) - set(base))
        raise SegmentMismatch(
            f"segment sets differ (baseline-only {only_base}, candidate-only {only_cand})"
        )
    bd_sums = {f"bd{m}_{k}": [] for m in ("_rate", "") for k in METRIC_KINDS}
    breakdown: list[dict] = []
    base_energy = base_storage = 0.0
    cand_energy = cand_storage = 0.0
    cand_times: list[float] = []
    for segment_id in sorted(base):
        b_seg, c_seg = base[segment_id], cand[segment_id]
        entry: dict = {"segment_id": segment_id}
        for kind in METRIC_KINDS:
            try:
                ref, test = b_seg.curve(kind), c_seg.curve(kind)
                rate_delta, quality_delta = _bd_rate(ref, test), _bd_quality(ref, test)
            except MetricsError as exc:
                entry[f"bd_error_{kind}"] = str(exc)
                continue
            for name, value in ((f"bd_rate_{kind}", rate_delta), (f"bd_{kind}", quality_delta)):
                entry[name] = value
                bd_sums[name].append(value)
        b_times, c_times = b_seg.times, c_seg.times
        entry["baseline_time_s"] = segment_encode_time(b_times)
        entry["candidate_time_s"] = segment_encode_time(c_times)
        cand_times.append(entry["candidate_time_s"])
        base_energy += encoding_energy(b_times, kappa)
        cand_energy += encoding_energy(c_times, kappa)
        base_storage += b_seg.total_bitrate * segment_duration_s
        cand_storage += c_seg.total_bitrate * segment_duration_s
        breakdown.append(entry)
    if base_energy == 0 or base_storage == 0:
        raise MetricsError("baseline energy/storage must be nonzero for relative deltas")

    def _finite(value: float) -> float | None:
        return value if math.isfinite(value) else None

    def _mean(values: list[float]) -> float | None:
        return _finite(float(np.mean(values))) if values else None

    return SchemeReport(
        **{name: _mean(values) for name, values in bd_sums.items()},
        delta_energy_pct=_finite(100.0 * (cand_energy - base_energy) / base_energy),
        delta_storage_pct=_finite(100.0 * (cand_storage - base_storage) / base_storage),
        mean_segment_time_s=_mean(cand_times),
        segments=tuple(breakdown),
    )


def load_evaluation_csv(source: Iterable[str]) -> tuple[str, list[EvaluatedSegment]]:
    """Read one scheme's evaluated ladders (:mod:`.table` conventions).

    Rows with the same (segment, bitrate, resolution) describe one
    representation; each may contribute one quality metric and all must
    agree on the encode time.  The file must contain exactly one scheme
    label.  Returns (scheme name, segments in first-appearance order).
    """
    schemes: set[str] = set()
    # segment -> (bitrate, resolution) -> representation; later rows for the
    # same representation add their quality metric to it
    segments: dict[str, dict[tuple[float, int], EvaluatedRep]] = {}
    for lineno, row in read_table(source, EVALUATION_CSV_HEADER, SegmentMismatch):
        segment_id, scheme, bitrate_s, resolution_s, metric, quality_s, time_s = row
        schemes.add(scheme)
        if metric not in METRIC_KINDS:
            raise MetricKindMismatch(f"line {lineno}: unknown quality metric {metric!r}")
        try:
            rep = EvaluatedRep(finite_float(bitrate_s), int(resolution_s),
                               finite_float(time_s), {metric: finite_float(quality_s)})
        except (ValueError, MetricsError) as exc:
            raise SegmentMismatch(f"line {lineno}: {exc}") from None
        reps = segments.setdefault(segment_id, {})
        known = reps.setdefault((rep.bitrate, rep.resolution), rep)
        if known is rep:
            continue
        if known.encode_time != rep.encode_time:
            raise SegmentMismatch(
                f"line {lineno}: encode time {rep.encode_time} contradicts "
                f"{known.encode_time} for the same representation"
            )
        if metric in known.qualities:
            raise SegmentMismatch(
                f"line {lineno}: duplicate {metric} quality for one representation"
            )
        known.qualities[metric] = rep.qualities[metric]
    if len(schemes) != 1:
        raise SegmentMismatch(f"evaluation CSV must hold exactly one scheme, got {sorted(schemes)}")
    out = [
        EvaluatedSegment(segment_id=segment_id, reps=tuple(reps[key] for key in sorted(reps)))
        for segment_id, reps in segments.items()
    ]
    return schemes.pop(), out
