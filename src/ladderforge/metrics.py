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


def _fit_cubic(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``np.polyfit(x, y, 3)`` by its own steps, so bitwise equal to it, with
    a column scale that overflows or vanishes, a rank below 4 or an
    unconverged solve raised as :class:`DegenerateFit`."""
    x, y = x + 0.0, y + 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # checked on the scale
        lhs = np.vander(x, 4)
        scale = np.sqrt((lhs * lhs).sum(axis=0))
    if not all(map(math.isfinite, scale.tolist())):  # lists: quicker for 4 values
        raise DegenerateFit(f"cubic fit overflows float64 (abscissae up to {float(abs(x).max())})")
    if 0.0 in scale.tolist():  # every abscissa 0, or too near it to square
        raise DegenerateFit("cubic fit is rank-deficient (duplicate abscissae?)")
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


def _bd(x_ref: np.ndarray, y_ref: np.ndarray, x_test: np.ndarray, y_test: np.ndarray) -> float:
    """Mean of the test curve's cubic fit minus the reference's over their overlap."""
    p_ref, p_test = _fit_cubic(x_ref, y_ref), _fit_cubic(x_test, y_test)
    mean = _mean_poly_difference(p_test, p_ref, *_overlap(x_ref, x_test))
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
    avg = _bd(reference.qualities, reference.log_rates, test.qualities, test.log_rates)
    rate = (10.0 ** min(avg, 308.0) - 1.0) * 100.0  # inf above 306.25; ** raises above 308.25
    if not math.isfinite(rate):
        raise MetricsError(f"BD-rate overflows (mean log10 rate difference {avg})")
    return rate


def bd_quality(reference: RdCurve, test: RdCurve) -> float:
    """Average quality change of ``test`` vs ``reference`` at equal bitrate."""
    _same_kind(reference, test)  # quality as a cubic in log10 rate
    return _bd(reference.log_rates, reference.qualities, test.log_rates, test.qualities)


def _encode_times(times: Iterable[float]) -> list[float]:
    values = list(times)
    if not values:
        raise EmptyLadder("no representation times supplied")
    for t in values:
        if not 0 <= t < math.inf:
            raise MetricsError(f"encode time must be finite and nonnegative, got {t}")
    return values


def _check_duration(duration_s: float) -> None:
    if not 0 < duration_s < math.inf:
        raise MetricsError(f"duration must be finite and positive, got {duration_s}")


def segment_encode_time(times: Iterable[float]) -> float:
    """Wall time of one segment under concurrent encoding: the max rung time."""
    return float(max(_encode_times(times)))


def encoding_energy(times: Iterable[float], kappa: float) -> float:
    """Total joules: ``kappa`` times the summed encode seconds."""
    if not 0 < kappa < math.inf:
        raise MetricsError(f"kappa must be finite and positive, got {kappa}")
    return float(kappa * sum(_encode_times(times)))


def storage(ladder: Ladder, duration_s: float) -> float:
    """Megabits to store every rung of one segment."""
    _check_duration(duration_s)
    return float(sum(rep.bitrate for rep in ladder.reps) * duration_s)


@dataclass(frozen=True)
class EvaluatedRep:
    """One encoded rung with measured (or predicted) quality and time."""

    bitrate: float
    resolution: int
    encode_time: float
    qualities: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not 0 < self.bitrate < math.inf:
            raise MetricsError(f"bitrate must be finite and positive, got {self.bitrate}")
        if not 0 <= self.encode_time < math.inf:
            raise MetricsError(f"encode time must be finite and nonnegative, got {self.encode_time}")
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

    def curve(self, metric_kind: str) -> RdCurve:
        """This segment's RD curve for one metric."""
        return RdCurve.from_pairs(sorted((rep.bitrate, rep.qualities[metric_kind])
                                         for rep in self.reps if metric_kind in rep.qualities),
                                  metric_kind)

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
    _check_duration(segment_duration_s)
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
                rate_delta, quality_delta = bd_rate(ref, test), bd_quality(ref, test)
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
        with np.errstate(over="ignore"):  # an overflowing mean is None
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
    # segment -> (bitrate, resolution) -> representation, built from its first
    # row; later rows for the same representation add their quality metric
    segments: dict[str, dict[tuple[float, int], EvaluatedRep]] = {}
    for lineno, row in read_table(source, EVALUATION_CSV_HEADER, SegmentMismatch):
        segment_id, scheme, bitrate_s, resolution_s, metric, quality_s, time_s = row
        schemes.add(scheme)
        if metric not in METRIC_KINDS:
            raise MetricKindMismatch(f"line {lineno}: unknown quality metric {metric!r}")
        try:
            bitrate, resolution = finite_float(bitrate_s), int(resolution_s)
            time, quality = finite_float(time_s), finite_float(quality_s)
            reps = segments.setdefault(segment_id, {})
            known = reps.get((bitrate, resolution))
            if known is None:
                reps[bitrate, resolution] = EvaluatedRep(bitrate, resolution, time, {metric: quality})
                continue
            _encode_times((time,))  # its bitrate matched a checked one
        except (ValueError, MetricsError) as exc:
            raise SegmentMismatch(f"line {lineno}: {exc}") from None
        if known.encode_time != time:
            raise SegmentMismatch(
                f"line {lineno}: encode time {time} contradicts "
                f"{known.encode_time} for the same representation"
            )
        if metric in known.qualities:
            raise SegmentMismatch(
                f"line {lineno}: duplicate {metric} quality for one representation"
            )
        known.qualities[metric] = quality
    if len(schemes) != 1:
        raise SegmentMismatch(f"evaluation CSV must hold exactly one scheme, got {sorted(schemes)}")
    out = [
        EvaluatedSegment(segment_id=segment_id, reps=tuple(reps[key] for key in sorted(reps)))
        for segment_id, reps in segments.items()
    ]
    return schemes.pop(), out
