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

:func:`compare_schemes` computes every fit and mean of a comparison at once:
one LAPACK call for all the fits of one curve length, then each Horner step
of all the means as one array operation.  The solve is
``numpy.linalg._umath_linalg.lstsq``, the gufunc that ``np.linalg.lstsq``
itself calls: only it solves a stack of matrices with ``lstsq``'s own LAPACK
routine (``gelsd``) and ``rcond``, where the public function takes one
matrix.  That gufunc is one function only from numpy 2.1 on (numpy 1 split
it into ``lstsq_m`` and ``lstsq_n``), hence the ``numpy>=2.1`` floor.
``bd_rate`` and ``bd_quality`` go through the same functions with one pair
of curves.

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
from typing import Iterable, Mapping, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

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
    "report_text",
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


def _raise_unconverged(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


_RANK_DEFICIENT = "cubic fit is rank-deficient (duplicate abscissae?)"
_EPS = float(np.finfo(np.float64).eps)


def _fit_cubics(pairs: Sequence[tuple[np.ndarray, np.ndarray]]) -> list[np.ndarray | DegenerateFit]:
    """``np.polyfit(x, y, 3)`` of every ``(x, y)`` by its own steps, so bitwise
    equal to it, with one LAPACK call for all the curves of one length.  A
    curve whose column scale overflows or vanishes, whose rank is below 4 or
    whose solve does not converge gets a :class:`DegenerateFit` in its place."""
    fits: list = [None] * len(pairs)
    by_length: dict[int, list[int]] = {}
    for i, (x, _) in enumerate(pairs):
        by_length.setdefault(len(x), []).append(i)
    for m, members in by_length.items():
        x = np.array([pairs[i][0] for i in members]) + 0.0
        y = np.array([pairs[i][1] for i in members]) + 0.0
        with np.errstate(over="ignore", invalid="ignore"):  # checked on the scale
            lhs = np.empty((len(members), m, 4))  # np.vander(x, 4) of each row
            powers = lhs[..., ::-1]
            powers[..., 0] = 1
            powers[..., 1:] = x[..., None]
            np.multiply.accumulate(powers[..., 1:], axis=-1, out=powers[..., 1:])
            scale = np.sqrt((lhs * lhs).sum(axis=1))
        solvable = []
        for k, row in enumerate(scale.tolist()):  # lists: quicker for 4 values
            if not all(map(math.isfinite, row)):
                fits[members[k]] = DegenerateFit(
                    f"cubic fit overflows float64 (abscissae up to {float(abs(x[k]).max())})")
            elif 0.0 in row:  # every abscissa 0, or too near it to square
                fits[members[k]] = DegenerateFit(_RANK_DEFICIENT)
            else:
                solvable.append(k)
        if not solvable:
            continue
        if len(solvable) < len(members):
            lhs, y, scale = lhs[solvable], y[solvable], scale[solvable]
        lhs /= scale[:, None]
        try:  # np.linalg.lstsq's own gufunc call, on every curve at once
            with np.errstate(call=_raise_unconverged, invalid="call",
                             over="ignore", divide="ignore", under="ignore"):
                coeffs, _residuals, ranks, _sv = _umath_linalg.lstsq(
                    lhs, y[..., None], m * _EPS, signature="ddd->ddid")
        except np.linalg.LinAlgError as exc:
            for k in solvable:  # one at a time, to name the curve that failed
                fits[members[k]] = (DegenerateFit(f"cubic fit failed: {exc}") if len(solvable) == 1
                                    else _fit_cubics([pairs[members[k]]])[0])
            continue
        for k, rank, fit in zip(solvable, ranks.tolist(), coeffs[..., 0] / scale):
            fits[members[k]] = fit if rank == 4 else DegenerateFit(_RANK_DEFICIENT)
    return fits


def _overlap(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    a, b = a.tolist(), b.tolist()  # the same values, quicker to compare
    lo = max(min(a), min(b))
    hi = min(max(a), max(b))
    if not lo < hi:
        raise NoOverlap(f"curves do not overlap (intersection [{lo}, {hi}])")
    return float(lo), float(hi)


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


def _bd_means(cases: Sequence[tuple]) -> list[float | MetricsError]:
    """For each ``(fit_ref, fit_test, x_ref, x_test)``, the mean of the test
    fit minus the reference fit over the overlap of the abscissae, or the
    error that stops it: a degenerate fit, no overlap, a mean that is not
    finite."""
    out: list = [None] * len(cases)
    rows, refs, tests, ends = [], [], [], []
    for i, (fit_ref, fit_test, x_ref, x_test) in enumerate(cases):
        try:
            for fit in (fit_ref, fit_test):
                if isinstance(fit, DegenerateFit):
                    raise fit
            ends.append(_overlap(x_ref, x_test))
        except MetricsError as exc:
            out[i] = exc
            continue
        rows.append(i)
        refs.append(fit_ref)
        tests.append(fit_test)
    if rows:
        lo, hi = np.array(ends).T
        for i, mean in zip(rows, _mean_poly_difference(np.array(tests), np.array(refs), lo, hi).tolist()):
            out[i] = mean if math.isfinite(mean) else MetricsError(
                f"mean curve difference is not finite ({mean})")
    return out


def _raised(value):
    """``value``, raised instead if it is an error."""
    if isinstance(value, MetricsError):
        raise value
    return value


def _rate_change(avg: float) -> float:
    rate = (10.0 ** min(avg, 308.0) - 1.0) * 100.0  # inf above 306.25; ** raises above 308.25
    if not math.isfinite(rate):
        raise MetricsError(f"BD-rate overflows (mean log10 rate difference {avg})")
    return rate


def _bd(x_ref: np.ndarray, y_ref: np.ndarray, x_test: np.ndarray, y_test: np.ndarray) -> float:
    """Mean of the test curve's cubic fit minus the reference's over their overlap."""
    return _raised(_bd_means([(*_fit_cubics([(x_ref, y_ref), (x_test, y_test)]), x_ref, x_test)])[0])


def _bd_deltas(requests: Sequence[tuple["EvaluatedSegment", "EvaluatedSegment", str]]
               ) -> list[tuple[float, float] | MetricsError]:
    """``(bd_rate(ref, test), bd_quality(ref, test))`` of the ``kind`` curves
    ``ref`` and ``test`` of each ``(baseline, candidate, kind)``, or the first
    error that those steps raise, in the same order; every fit and mean of
    all the requests is computed at once."""
    out: list = []
    pairs = []  # per request: the rate fits' (x, y), then the quality fits'
    for b_seg, c_seg, kind in requests:
        try:
            ref, test = b_seg.curve(kind), c_seg.curve(kind)
        except MetricsError as exc:
            out.append(exc)
            continue
        out.append(None)
        pairs += [(ref.qualities, ref.log_rates), (test.qualities, test.log_rates),
                  (ref.log_rates, ref.qualities), (test.log_rates, test.qualities)]
    fits = _fit_cubics(pairs)
    means = iter(_bd_means([(fits[i], fits[i + 1], pairs[i][0], pairs[i + 1][0])
                            for i in range(0, len(pairs), 2)]))
    for i, found in enumerate(out):
        if found is None:
            rate_mean, quality_mean = next(means), next(means)
            try:
                out[i] = _rate_change(_raised(rate_mean)), _raised(quality_mean)
            except MetricsError as exc:
                out[i] = exc
    return out


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
        _check_time(self.encode_time)
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


def report_text(baseline: str, candidate: str, report: SchemeReport, config_doc: dict) -> str:
    """``report.json``'s text: indent-2 JSON, which refuses NaN and infinity."""
    doc = {"baseline": baseline, "candidate": candidate, **report.to_dict(), "config": config_doc}
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


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
    _check_kappa(kappa)
    segment_ids = sorted(base)
    deltas = iter(_bd_deltas([(base[segment_id], cand[segment_id], kind)
                              for segment_id in segment_ids for kind in METRIC_KINDS]))
    bd_sums = {f"bd{m}_{k}": [] for m in ("_rate", "") for k in METRIC_KINDS}
    breakdown: list[dict] = []
    base_energy = base_storage = 0.0
    cand_energy = cand_storage = 0.0
    cand_times: list[float] = []
    for segment_id in segment_ids:
        b_seg, c_seg = base[segment_id], cand[segment_id]
        entry: dict = {"segment_id": segment_id}
        for kind in METRIC_KINDS:
            found = next(deltas)
            if isinstance(found, MetricsError):
                entry[f"bd_error_{kind}"] = str(found)
                continue
            for name, value in zip((f"bd_rate_{kind}", f"bd_{kind}"), found):
                entry[name] = value
                bd_sums[name].append(value)
        # Every encode time was checked finite and nonnegative by EvaluatedRep.
        b_times, c_times = b_seg.times, c_seg.times
        entry["baseline_time_s"] = float(max(b_times))
        entry["candidate_time_s"] = float(max(c_times))
        cand_times.append(entry["candidate_time_s"])
        base_energy += float(kappa * sum(b_times))
        cand_energy += float(kappa * sum(c_times))
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
            _check_time(time)  # its bitrate matched a checked one
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
