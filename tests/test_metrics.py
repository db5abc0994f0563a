import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from conftest import (bd_quality_oracle, bd_rate_oracle, random_rd_pairs, reference_load_evaluation_csv,
                      table_segments)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ladderforge import metrics
from ladderforge.config import DEFAULT_BITRATES_MBPS, RunConfig
from ladderforge.ladder import EmptyLadder, Ladder, LadderParams, Representation
from ladderforge.metrics import (
    DegenerateFit,
    EvaluatedRep,
    EvaluatedSegment,
    InsufficientPoints,
    MetricKindMismatch,
    MetricsError,
    NoOverlap,
    RdCurve,
    SegmentMismatch,
    bd_quality,
    bd_rate,
    compare_schemes,
    encoding_energy,
    load_evaluation_csv,
    segment_encode_time,
    storage,
)
from ladderforge.metrics import _fit_cubics, _mean_poly_difference

CURVE = [(0.5, 34.0), (1.2, 38.5), (3.0, 42.0), (7.5, 45.0), (15.0, 46.5)]


def _curve(pairs, kind="psnr"):
    return RdCurve.from_pairs(pairs, kind)


# ---------------------------------------------------------------- BD metrics


def test_identical_curves_give_zero():
    a = _curve(CURVE)
    assert bd_rate(a, a) == 0.0
    assert bd_quality(a, a) == 0.0


def test_rate_doubling_gives_plus_hundred_percent():
    ref = _curve(CURVE)
    test = _curve([(2 * r, q) for r, q in CURVE])
    assert bd_rate(ref, test) == pytest.approx(100.0, abs=1e-6)
    inverse = bd_rate(test, ref)
    assert inverse == pytest.approx(-50.0, abs=1e-6)


def test_constant_quality_offset_gives_exact_delta():
    ref = _curve(CURVE, "vmaf")
    test = _curve([(r, q + 1.0) for r, q in CURVE], "vmaf")
    assert bd_quality(ref, test) == pytest.approx(1.0, abs=1e-9)
    assert bd_quality(test, ref) == pytest.approx(-1.0, abs=1e-9)


def test_bd_matches_dense_trapezoid_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        ref = random_rd_pairs(rng, n_points=int(rng.integers(4, 7)))
        test = random_rd_pairs(rng, n_points=int(rng.integers(4, 7)))
        rate_delta = bd_rate(_curve(ref), _curve(test))
        assert rate_delta == pytest.approx(bd_rate_oracle(ref, test), abs=0.01)
        quality_delta = bd_quality(_curve(ref), _curve(test))
        assert quality_delta == pytest.approx(bd_quality_oracle(ref, test), abs=0.001)


def test_bd_rate_reciprocal_identity():
    rng = np.random.default_rng(8)
    for _ in range(100):
        a = _curve(random_rd_pairs(rng))
        b = _curve(random_rd_pairs(rng))
        forward = bd_rate(a, b)
        backward = bd_rate(b, a)
        assert (1 + forward / 100.0) * (1 + backward / 100.0) == pytest.approx(1.0, rel=1e-9)
        assert bd_quality(a, b) == pytest.approx(-bd_quality(b, a), abs=1e-9)


def test_insufficient_points_rejected():
    with pytest.raises(InsufficientPoints):
        _curve(CURVE[:3])


def test_no_overlap_rejected():
    low = _curve([(0.5, 10.0), (1.0, 12.0), (2.0, 14.0), (4.0, 16.0)])
    high = _curve([(0.5, 20.0), (1.0, 22.0), (2.0, 24.0), (4.0, 26.0)])
    with pytest.raises(NoOverlap):
        bd_rate(low, high)
    # bd_quality overlaps on the rate axis here, so it still works
    assert math.isfinite(bd_quality(low, high))


def test_degenerate_fit_rejected():
    flat = _curve([(0.5, 30.0), (1.0, 30.0), (2.0, 30.0), (4.0, 30.0)])
    with pytest.raises(DegenerateFit):
        bd_rate(flat, flat)


@pytest.mark.parametrize("scale, message", [
    (1e100, "cubic fit overflows float64 (abscissae up to 4e+100)"),
    # the squared cubes underflow to 0, on which LAPACK would never return
    (1e-100, "cubic fit is rank-deficient (duplicate abscissae?)"),
])
def test_fits_whose_column_scale_overflows_or_vanishes_are_degenerate(scale, message):
    curve = _curve([(r, scale * r) for r in (1.0, 2.0, 3.0, 4.0)])
    with pytest.raises(DegenerateFit) as info:
        bd_rate(curve, curve)
    assert str(info.value) == message


def test_metric_kind_mismatch_rejected():
    with pytest.raises(MetricKindMismatch):
        bd_rate(_curve(CURVE, "psnr"), _curve(CURVE, "vmaf"))
    with pytest.raises(MetricKindMismatch):
        _curve(CURVE, "ssim")


def test_curve_requires_increasing_bitrates():
    with pytest.raises(MetricsError):
        _curve([(1.0, 30.0), (1.0, 31.0), (2.0, 32.0), (3.0, 33.0)])


NAN = float("nan")


@pytest.mark.parametrize("pairs, kind, error, message", [
    # each case also breaks every later check, so the order is pinned too
    ([(NAN, NAN), (1.0, 30.0), (1.0, 31.0)], "ssim",
     MetricsError, "bitrate must be finite and positive, got nan"),
    ([(0.0, NAN), (1.0, 30.0), (1.0, 31.0)], "ssim",
     MetricsError, "bitrate must be finite and positive, got 0.0"),
    ([(1.0, 30.0), (1.0, NAN), (2.0, 31.0)], "ssim", MetricsError, "quality must be finite, got nan"),
    ([(1.0, 30.0), (1.0, 31.0), (2.0, 32.0)], "ssim",
     InsufficientPoints, "a curve needs >= 4 points, got 3"),
    ([(1.0, 30.0), (1.0, 31.0), (2.0, 32.0), (3.0, 33.0)], "ssim",
     MetricsError, "bitrates must strictly increase, got 1.0 then 1.0"),
    (CURVE, "ssim", MetricKindMismatch, "metric_kind must be one of ('psnr', 'vmaf'), got 'ssim'"),
], ids=["nan-bitrate", "zero-bitrate", "nan-quality", "three-points", "repeated-bitrate",
        "unknown-kind"])
def test_curve_checks_keep_their_order_class_and_message(pairs, kind, error, message):
    with pytest.raises(MetricsError) as info:
        RdCurve.from_pairs(pairs, kind)
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("bd", [bd_rate, bd_quality])
def test_bd_metric_kind_mismatch_keeps_its_message(bd):
    with pytest.raises(MetricKindMismatch) as info:
        bd(_curve(CURVE, "psnr"), _curve(CURVE, "vmaf"))
    assert str(info.value) == "curves carry different metrics: 'psnr' vs 'vmaf'"


# ------------------------------------------------- the fit and its integral

_VALUES = st.floats(-1e6, 1e6, allow_nan=False) | st.integers(-10**6, 10**6)


@st.composite
def _near_duplicates(draw, n):
    """Abscissae a few ulps apart: far too close for a cubic of rank 4."""
    x = draw(st.floats(0.5, 1e6) | st.floats(-1e6, -0.5))
    steps = draw(st.lists(st.integers(0, 50), min_size=n, max_size=n, unique=True))
    return [x + k * math.ulp(x) for k in sorted(steps)], True


@st.composite
def _fit_inputs(draw):
    n = draw(st.integers(4, 12))
    x, near = draw(_near_duplicates(n) | st.tuples(
        st.lists(_VALUES, min_size=n, max_size=n), st.just(False)))
    dtype = draw(st.sampled_from([float, int])) if all(isinstance(v, int) for v in x) else float
    return np.array(x, dtype=dtype), np.array(draw(st.lists(_VALUES, min_size=n, max_size=n))), near


@settings(max_examples=300, deadline=None)
@given(_fit_inputs())
@example((np.array([1e-60, 2e-60, 3e-60, 4e-60]), np.array([1.0, 2.0, 3.0, 4.0]), False))
def test_fit_cubic_is_polyfit_bit_for_bit(inputs):
    x, y, near = inputs
    [fit] = _fits([(x, y)])
    with np.errstate(all="ignore"):
        lhs = np.vander(x + 0.0, 4)
        scale = np.sqrt((lhs * lhs).sum(axis=0))
    if 0.0 in scale and x.any():
        # np.polyfit divides by the zero column scale, and LAPACK's solve
        # then never returns: only the reference is skipped.
        assert isinstance(fit, DegenerateFit)
        return
    try:
        with np.errstate(all="ignore"):  # numpy warns on scales it divides by 0
            coeffs, _residuals, rank, _sv, _rcond = np.polyfit(x, y, 3, full=True)
    except np.linalg.LinAlgError:
        rank = None
    if rank is None or rank < 4:
        assert isinstance(fit, DegenerateFit)
    else:
        assert not near
        assert fit.tobytes() == coeffs.tobytes()


def _fits(curves):
    """Each ``(x, y)`` curve's coefficients or DegenerateFit, from one
    ``_fit_cubics`` call per curve length, the lengths in order of first
    appearance."""
    out = [None] * len(curves)
    for m in dict.fromkeys(len(x) for x, _ in curves):
        members = [i for i, (x, _) in enumerate(curves) if len(x) == m]
        coeffs, errors = _fit_cubics(np.array([curves[i][0] for i in members]),
                                     np.array([curves[i][1] for i in members]))
        for k, i in enumerate(members):
            out[i] = errors.get(k, coeffs[k])
    return out


_COEFFS = st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=4, max_size=4).map(np.array)


@settings(max_examples=300, deadline=None)
@given(_COEFFS, _COEFFS, st.floats(-1e3, 1e3), st.floats(1e-9, 1e3))
def test_horner_integral_is_polyval_of_polyint_bit_for_bit(a, b, lo, width):
    hi = lo + width
    integral = np.polyint(np.polysub(a, b))
    want = float((np.polyval(integral, hi) - np.polyval(integral, lo)) / (hi - lo))
    assert np.float64(_mean_poly_difference(a, b, lo, hi)).tobytes() == np.float64(want).tobytes()


_RANK_DEFICIENT = "cubic fit is rank-deficient (duplicate abscissae?)"


def _polyfit_or_error(x, y):
    """``np.polyfit(x, y, 3)``, or the text of the DegenerateFit that the fit
    of (x, y) reports: a column scale that overflows or vanishes (on which
    polyfit would hand LAPACK a NaN it never returns from), an unconverged
    solve, a rank below 4."""
    x = np.asarray(x) + 0.0
    with np.errstate(all="ignore"):
        lhs = np.vander(x, 4)
        scale = np.sqrt((lhs * lhs).sum(axis=0))
    if not np.isfinite(scale).all():
        return f"cubic fit overflows float64 (abscissae up to {float(abs(x).max())})"
    if 0.0 in scale:
        return _RANK_DEFICIENT
    try:
        coeffs, _residuals, rank, _sv, _rcond = np.polyfit(x, y, 3, full=True)
    except np.linalg.LinAlgError as exc:
        return f"cubic fit failed: {exc}"
    return coeffs if rank == 4 else _RANK_DEFICIENT


def _assert_fit(fit, want):
    if isinstance(want, str):
        assert isinstance(fit, DegenerateFit) and str(fit) == want
    else:
        assert isinstance(fit, np.ndarray) and fit.tobytes() == want.tobytes()


_SIGNED_ZERO = st.sampled_from([0.0, -0.0])


@st.composite
def _batch_curve(draw):
    n = draw(st.integers(4, 12))
    shape = draw(st.sampled_from(["plain", "repeated", "near", "cube-overflow", "square-overflow",
                                  "vanishing", "integer"]))
    if shape == "plain":
        x = draw(st.lists(_VALUES | _SIGNED_ZERO, min_size=n, max_size=n))
    elif shape == "repeated":  # duplicate abscissae: rank below 4
        pool = draw(st.lists(_VALUES | _SIGNED_ZERO, min_size=1, max_size=3))
        x = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    elif shape == "near":
        x, _ = draw(_near_duplicates(n))
    elif shape == "cube-overflow":  # x**3 is inf
        x = draw(st.lists(st.floats(1e103, 1e300) | st.floats(-1e300, -1e103), min_size=n, max_size=n))
    elif shape == "square-overflow":  # x**3 is finite, its square is not
        x = draw(st.lists(st.floats(1e52, 1e102), min_size=n, max_size=n))
    elif shape == "vanishing":  # the squares of the cubes underflow to 0
        x = draw(st.lists(st.floats(-1e-60, 1e-60) | _SIGNED_ZERO, min_size=n, max_size=n))
    else:
        x = np.array(draw(st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n)))
    if draw(st.booleans()):
        y = [draw(_VALUES | _SIGNED_ZERO)] * n  # a constant curve
    else:
        y = draw(st.lists(_VALUES | _SIGNED_ZERO, min_size=n, max_size=n))
    return np.asarray(x), np.array(y)


@settings(max_examples=150, deadline=None)
@given(st.lists(_batch_curve(), min_size=1, max_size=16))
def test_batched_fits_are_polyfit_bit_for_bit(curves):
    fits = _fits(curves)
    assert len(fits) == len(curves)
    for fit, (x, y) in zip(fits, curves):
        _assert_fit(fit, _polyfit_or_error(x, y))


def test_a_batch_that_does_not_converge_is_solved_one_curve_at_a_time(monkeypatch):
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    marked = 123.0  # the solve of the curve holding this value fails to converge
    curves = [(x, x ** 2), (x, np.array([marked, 1.0, 0.0, 2.0, 5.0])), (x, x ** 3 - x),
              (np.arange(6.0), np.arange(6.0) ** 2)]
    real, batches = metrics._umath_linalg, []

    class Unconverged:
        @staticmethod
        def lstsq(lhs, rhs, rcond, signature):
            batches.append(len(lhs))
            if (rhs[:, 0, 0] == marked).any():
                raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")
            return real.lstsq(lhs, rhs, rcond, signature=signature)

    monkeypatch.setattr(metrics, "_umath_linalg", Unconverged)
    fits = _fits(curves)
    assert batches == [3, 1, 1, 1, 1]  # the length-5 group, its curves one by one, the length-6 group
    _assert_fit(fits[1], "cubic fit failed: SVD did not converge in Linear Least Squares")
    for i in (0, 2, 3):
        _assert_fit(fits[i], _polyfit_or_error(*curves[i]))


def test_bd_error_text_and_precedence_for_segments_with_several_faults():
    """Each curve fault names the base curve before the candidate, then the
    rate fits and their overlap, then the quality fits and their overlap."""
    def seg(sid, rows):
        return EvaluatedSegment(sid, tuple(EvaluatedRep(b, 720, 1.0, q) for b, q in rows))

    near = [math.nextafter(10.0, 20.0)]
    for _ in range(3):
        near.append(math.nextafter(near[-1], 20.0))
    baseline = [
        # psnr: 3 points against 2; vmaf: a constant quality (a degenerate
        # rate fit) that the candidate's qualities do not overlap either
        seg("a", [(1.0, {"psnr": 30.0, "vmaf": 60.0}), (2.0, {"psnr": 32.0, "vmaf": 60.0}),
                  (3.0, {"psnr": 33.0, "vmaf": 60.0}), (4.0, {"vmaf": 60.0})]),
        # psnr: a non-finite quality; vmaf: no quality overlap, and candidate
        # bitrates too close for its quality fit
        seg("b", [(1.0, {"psnr": float("nan"), "vmaf": 30.0}), (2.0, {"psnr": 32.0, "vmaf": 32.0}),
                  (3.0, {"psnr": 33.0, "vmaf": 35.0}), (4.0, {"psnr": 34.0, "vmaf": 40.0})]),
        # psnr: a constant quality against one bitrate at two resolutions
        seg("c", [(b, {"psnr": 30.0}) for b in (1.0, 2.0, 3.0, 4.0)]),
    ]
    candidate = [
        seg("a", [(1.5, {"psnr": 31.0, "vmaf": 70.0}), (2.5, {"psnr": 33.0, "vmaf": 72.0}),
                  (3.5, {"vmaf": 75.0}), (4.5, {"vmaf": 80.0})]),
        seg("b", [(b, {"psnr": 30.0 + i, "vmaf": 50.0 + i}) for i, b in enumerate(near)]
            + [(5.0, {"psnr": 40.0})]),
        EvaluatedSegment("c", tuple(EvaluatedRep(b, r, 1.0, {"psnr": 30.0 + b})
                                    for b, r in ((1.0, 360), (2.0, 360), (2.0, 720), (3.0, 720)))),
    ]
    errors = [{k: v for k, v in entry.items() if k.startswith("bd_")}
              for entry in compare_schemes(baseline, candidate).segments]
    assert errors == [
        {"bd_error_psnr": "a curve needs >= 4 points, got 3",
         "bd_error_vmaf": "cubic fit is rank-deficient (duplicate abscissae?)"},
        {"bd_error_psnr": "quality must be finite, got nan",
         "bd_error_vmaf": "curves do not overlap (intersection [50.0, 40.0])"},
        {"bd_error_psnr": "bitrates must strictly increase, got 2.0 then 2.0",
         "bd_error_vmaf": "a curve needs >= 4 points, got 0"},
    ]


# compare_schemes as it was before its fits were batched and its segments
# became a table: each segment's curves from its representation objects, then
# bd_rate's fits, overlap and mean, then bd_quality's, one np.linalg.lstsq
# call per fit, and each segment's sums over its representations in order.


def _reference_curve(seg, kind):
    return RdCurve.from_pairs(sorted((rep.bitrate, rep.qualities[kind])
                                     for rep in seg.reps if kind in rep.qualities), kind)


def _reference_fit(x, y):
    x, y = x + 0.0, y + 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = np.vander(x, 4)
        scale = np.sqrt((lhs * lhs).sum(axis=0))
    if not all(map(math.isfinite, scale.tolist())):
        raise DegenerateFit(f"cubic fit overflows float64 (abscissae up to {float(abs(x).max())})")
    if 0.0 in scale.tolist():
        raise DegenerateFit(_RANK_DEFICIENT)
    lhs /= scale
    try:
        coeffs, _residuals, rank, _sv = np.linalg.lstsq(lhs, y, len(x) * np.finfo(x.dtype).eps)
    except np.linalg.LinAlgError as exc:
        raise DegenerateFit(f"cubic fit failed: {exc}") from None
    if rank < 4:
        raise DegenerateFit(_RANK_DEFICIENT)
    return coeffs / scale


def _reference_bd(x_ref, y_ref, x_test, y_test):
    p_ref, p_test = _reference_fit(x_ref, y_ref), _reference_fit(x_test, y_test)
    a, b = x_ref.tolist(), x_test.tolist()
    lo, hi = max(min(a), min(b)), min(max(a), max(b))
    if not lo < hi:
        raise NoOverlap(f"curves do not overlap (intersection [{lo}, {hi}])")
    at_lo = at_hi = 0.0
    for c in [*((p_test - p_ref) / np.arange(4, 0, -1)).tolist(), 0.0]:
        at_lo, at_hi = at_lo * lo + c, at_hi * hi + c
    mean = (at_hi - at_lo) / (hi - lo)
    if not math.isfinite(mean):
        raise MetricsError(f"mean curve difference is not finite ({mean})")
    return mean


def _reference_report(baseline, candidate, kappa, duration):
    base = {seg.segment_id: seg for seg in baseline}
    cand = {seg.segment_id: seg for seg in candidate}
    sums = {f"bd{m}_{k}": [] for m in ("_rate", "") for k in ("psnr", "vmaf")}
    breakdown, energy, stored, cand_times = [], [0.0, 0.0], [0.0, 0.0], []
    for segment_id in sorted(base):
        b_seg, c_seg = base[segment_id], cand[segment_id]
        entry = {"segment_id": segment_id}
        for kind in ("psnr", "vmaf"):
            try:
                ref, test = _reference_curve(b_seg, kind), _reference_curve(c_seg, kind)
                avg = _reference_bd(ref.qualities, ref.log_rates, test.qualities, test.log_rates)
                rate = (10.0 ** min(avg, 308.0) - 1.0) * 100.0
                if not math.isfinite(rate):
                    raise MetricsError(f"BD-rate overflows (mean log10 rate difference {avg})")
                quality = _reference_bd(ref.log_rates, ref.qualities, test.log_rates, test.qualities)
            except MetricsError as exc:
                entry[f"bd_error_{kind}"] = str(exc)
                continue
            for name, value in ((f"bd_rate_{kind}", rate), (f"bd_{kind}", quality)):
                entry[name] = value
                sums[name].append(value)
        b_times, c_times = ([rep.encode_time for rep in seg.reps] for seg in (b_seg, c_seg))
        entry["baseline_time_s"] = segment_encode_time(b_times)
        entry["candidate_time_s"] = segment_encode_time(c_times)
        cand_times.append(entry["candidate_time_s"])
        for i, (seg, times) in enumerate(((b_seg, b_times), (c_seg, c_times))):
            energy[i] += encoding_energy(times, kappa)
            stored[i] += float(sum(rep.bitrate for rep in seg.reps)) * duration
        breakdown.append(entry)
    if energy[0] == 0 or stored[0] == 0:
        raise MetricsError("baseline energy/storage must be nonzero for relative deltas")

    def finite(value):
        return value if math.isfinite(value) else None

    def mean(values):
        with np.errstate(over="ignore"):
            return finite(float(np.mean(values))) if values else None

    return {**{name: mean(values) for name, values in sums.items()},
            "delta_energy_pct": finite(100.0 * (energy[1] - energy[0]) / energy[0]),
            "delta_storage_pct": finite(100.0 * (stored[1] - stored[0]) / stored[0]),
            "mean_segment_time_s": mean(cand_times), "segments": breakdown}


_RATES = {
    "spread": st.floats(0.05, 40.0),
    "repeated": st.sampled_from([0.3, 1.6, 4.5]),  # one bitrate at two resolutions
    "tiny": st.floats(1e-300, 4e-300),  # against "huge": a BD-rate past float64
    "huge": st.floats(1e300, 4e300),
}
_QUALITIES = {
    "spread": st.floats(20.0, 60.0),
    "wild": st.floats(-1e6, 1e6) | st.just(-0.0),
    "flat": st.just(37.5),  # a degenerate rate fit
    "huge": st.floats(1e52, 1e200),  # an overflowing column scale
    "nan": st.floats(20.0, 60.0) | st.just(math.nan),
}


@st.composite
def _scheme_pair(draw):
    """Baseline and candidate segments over the same ids, each curve of its own
    shape, so that every BD error text turns up."""
    ids = draw(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=5, unique=True))
    schemes = []
    for _ in range(2):
        segments = []
        for segment_id in ids:
            n = draw(st.integers(1, 9))
            rates = draw(st.lists(_RATES[draw(st.sampled_from(sorted(_RATES)))], min_size=n, max_size=n))
            qualities = {kind: draw(st.lists(_QUALITIES[draw(st.sampled_from(sorted(_QUALITIES)))],
                                             min_size=n, max_size=n)) for kind in ("psnr", "vmaf")}
            dropped = draw(st.sampled_from([None, "psnr", "vmaf"]))  # a kind some rungs lack
            reps = []
            for i, b in enumerate(rates):
                kinds = {k: qualities[k][i] for k in ("psnr", "vmaf") if k != dropped or i % 2}
                reps.append(EvaluatedRep(b, draw(st.sampled_from([360, 720])),
                                         draw(st.floats(0.0, 10.0)), kinds))
            segments.append(EvaluatedSegment(segment_id, tuple(draw(st.permutations(reps)))))
        schemes.append(segments)
    return schemes


@settings(max_examples=150, deadline=None)
@given(_scheme_pair(), st.floats(0.5, 50.0), st.floats(1.0, 10.0))
def test_compare_schemes_equals_the_per_curve_reference(schemes, kappa, duration):
    def outcome(report):
        try:  # the JSON text: the same keys in the same order, every float bit for bit
            return json.dumps(report())
        except MetricsError as exc:
            return repr(exc)

    baseline, candidate = schemes
    assert outcome(lambda: compare_schemes(baseline, candidate, kappa=kappa,
                                           segment_duration_s=duration).to_dict()) == outcome(
        lambda: _reference_report(baseline, candidate, kappa, duration))


def test_compare_schemes_equals_the_reference_on_every_bd_error():
    def seg(segment_id, rates, psnr, vmaf=(40.0, 50.0, 60.0, 70.0, 80.0)):
        return EvaluatedSegment(segment_id, tuple(
            EvaluatedRep(b, 720 + i, 1.0, {"psnr": q, "vmaf": v})
            for i, (b, q, v) in enumerate(zip(rates, psnr, vmaf))))

    rates, psnr = (1.0, 2.0, 3.0, 4.0, 5.0), (30.0, 33.0, 35.0, 36.0, 37.0)
    baseline = [
        seg("few", rates[:3], psnr), seg("nan", rates, (30.0, math.nan, 35.0, 36.0, 37.0)),
        seg("repeat", (1.0, 2.0, 2.0, 4.0, 5.0), psnr), seg("flat", rates, (30.0,) * 5),
        seg("huge", rates, tuple(q * 1e100 for q in psnr)), seg("apart", rates, psnr),
        seg("rate", tuple(b * 1e-300 for b in rates), psnr), seg("ok", rates, psnr),
        # curves that meet at zero: each end is the first of 0.0 and -0.0, as min and max pick it
        seg("zero", rates, (-4.0, -3.0, -2.0, 0.0, -0.0)),
    ]
    candidate = [seg(s.segment_id, tuple(b * 1.1 for b in rates), tuple(q + 0.5 for q in psnr))
                 for s in baseline]
    candidate[5] = seg("apart", rates, tuple(q + 20 for q in psnr))
    candidate[6] = seg("rate", tuple(b * 1e300 for b in rates), psnr)
    candidate[8] = seg("zero", rates, (-0.0, 0.0, 1.0, 2.0, 3.0))
    report = compare_schemes(baseline, candidate, kappa=3.0, segment_duration_s=2.0).to_dict()
    assert json.dumps(report) == json.dumps(_reference_report(baseline, candidate, 3.0, 2.0))
    assert [entry.get("bd_error_psnr") for entry in report["segments"]] == [
        "curves do not overlap (intersection [50.0, 37.0])",
        "a curve needs >= 4 points, got 3",
        "cubic fit is rank-deficient (duplicate abscissae?)",
        "cubic fit overflows float64 (abscissae up to 3.7000000000000004e+101)",
        "quality must be finite, got nan",
        None,
        "BD-rate overflows (mean log10 rate difference 600.0)",
        "bitrates must strictly increase, got 2.0 then 2.0",
        "curves do not overlap (intersection [-0.0, 0.0])",
    ]


def test_a_pair_whose_fit_does_not_converge_is_named_by_bd_quality(monkeypatch):
    """A batch whose solve fails is solved one curve at a time; the pair of the
    curve that fails alone takes bd_rate and bd_quality's path, which name its
    fault, and every other figure is the reference's, bit for bit."""
    marked = 23.125  # the solve of the fit whose first ordinate is this value fails to converge
    rates = (0.5, 1.2, 3.0, 7.5, 15.0)
    baseline, candidate = [], []
    for k, segment_id in enumerate("abc"):
        for scheme, lift in ((baseline, 0.0), (candidate, 1.5)):
            scheme.append(_segment(segment_id, [
                _rep(b * (1.1 if lift else 1.0), 30.0 + 3 * i + lift + k, 50.0 + 8 * i + 2 * lift - k, 1.0 + i)
                for i, b in enumerate(rates)]))
    first = candidate[1].reps[0]
    candidate[1] = _segment("b", (dataclasses.replace(first, qualities={**first.qualities, "psnr": marked}),
                                  *candidate[1].reps[1:]))
    unconverged = np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")
    real, real_lstsq, batches = metrics._umath_linalg, np.linalg.lstsq, []

    class Unconverged:
        @staticmethod
        def lstsq(lhs, rhs, rcond, signature):
            batches.append(len(lhs))
            if (rhs[:, 0, 0] == marked).any():
                raise unconverged
            return real.lstsq(lhs, rhs, rcond, signature=signature)

    def reference_lstsq(lhs, rhs, rcond):
        if rhs[0] == marked:
            raise unconverged
        return real_lstsq(lhs, rhs, rcond)

    monkeypatch.setattr(metrics, "_umath_linalg", Unconverged)
    monkeypatch.setattr(np.linalg, "lstsq", reference_lstsq)
    report = compare_schemes(baseline, candidate, kappa=2.0, segment_duration_s=3.0).to_dict()
    assert batches[0] == 24  # both fits of the 12 curves of length 5, then one at a time
    assert [(entry["segment_id"], key, value) for entry in report["segments"] for key, value in entry.items()
            if key.startswith("bd_error")] == [
        ("b", "bd_error_psnr", "cubic fit failed: SVD did not converge in Linear Least Squares")]
    assert json.dumps(report) == json.dumps(_reference_report(baseline, candidate, 2.0, 3.0))


def test_a_well_formed_table_is_compared_without_a_curve_object(monkeypatch):
    """Every pair of curves that can be fitted is fitted in the batch: comparing
    the golden baseline with itself builds no :class:`RdCurve`, and against the
    golden candidate only the curves of its two failing pairs."""
    built, real = [], RdCurve.from_pairs.__func__

    def from_pairs(cls, pairs, metric_kind):
        built.append(metric_kind)
        return real(cls, pairs, metric_kind)

    monkeypatch.setattr(RdCurve, "from_pairs", classmethod(from_pairs))
    golden = Path(__file__).parent / "golden"
    base, cand = (load_evaluation_csv((golden / f"{name}.csv").read_text(encoding="utf-8").splitlines(True))
                  for name in ("baseline", "candidate"))
    report = compare_schemes(base, base)
    assert built == []
    assert report.bd_rate_psnr == report.bd_vmaf == 0.0
    errors = [key for entry in compare_schemes(base, cand).segments for key in entry if key.startswith("bd_error")]
    assert errors == ["bd_error_psnr", "bd_error_vmaf"] and built == ["psnr", "psnr", "vmaf", "vmaf"]


def test_overflowing_aggregates_are_none():
    # Finite encode times whose sums overflow a float.
    huge = [_rep(1.0 + i, 30.0 + i, 40.0 + i, 1e308) for i in range(4)]
    report = compare_schemes([_segment("s", huge), _segment("t", huge)],
                             [_segment("s", huge), _segment("t", huge)])
    assert report.delta_energy_pct is None and report.mean_segment_time_s is None
    assert report.delta_storage_pct == 0.0


# --------------------------------------------------------------- accounting


def test_segment_time_examples():
    assert segment_encode_time([0.5]) == 0.5
    assert segment_encode_time([0.3, 0.9, 0.6]) == 0.9
    with pytest.raises(EmptyLadder):
        segment_encode_time([])
    with pytest.raises(MetricsError):
        segment_encode_time([0.1, -0.2])


def test_segment_time_equals_sort_oracle_and_is_permutation_invariant():
    rng = np.random.default_rng(9)
    for _ in range(200):
        times = [float(t) for t in rng.uniform(0, 5, rng.integers(1, 13))]
        expected = sorted(times, reverse=True)[0]
        assert segment_encode_time(times) == expected
        shuffled = list(times)
        rng.shuffle(shuffled)
        assert segment_encode_time(shuffled) == expected
        # adding a representation never decreases the wall time
        assert segment_encode_time(times + [float(rng.uniform(0, 5))]) >= expected


def test_energy_examples():
    assert encoding_energy([1.0, 2.0], kappa=10.0) == 30.0
    with pytest.raises(MetricsError):
        encoding_energy([1.0], kappa=0.0)
    with pytest.raises(EmptyLadder):
        encoding_energy([], kappa=1.0)
    assert encoding_energy([1.0, 2.0], 5.0) < encoding_energy([1.0, 2.0, 0.5], 5.0)


@pytest.mark.parametrize("make, message", [
    (lambda: EvaluatedRep(NAN, 720, 1.0), "bitrate must be finite and positive, got nan"),
    (lambda: EvaluatedRep(math.inf, 720, 1.0), "bitrate must be finite and positive, got inf"),
    (lambda: EvaluatedRep(1.0, 720, NAN), "encode time must be finite and nonnegative, got nan"),
    (lambda: EvaluatedRep(1.0, 720, math.inf),
     "encode time must be finite and nonnegative, got inf"),
    (lambda: encoding_energy([1.0], NAN), "kappa must be finite and positive, got nan"),
    (lambda: encoding_energy([1.0], math.inf), "kappa must be finite and positive, got inf"),
    (lambda: storage(Ladder((Representation(360, 1.0),), LadderParams()), NAN),
     "duration must be finite and positive, got nan"),
    (lambda: storage(Ladder((Representation(360, 1.0),), LadderParams()), math.inf),
     "duration must be finite and positive, got inf"),
], ids=[f"{value}-{name}" for name in ("bitrate", "time", "kappa", "duration")
        for value in ("nan", "inf")])
def test_accounting_rejects_non_finite_values(make, message):
    with pytest.raises(MetricsError) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize("times, bad", [([NAN], NAN), ([1.0, NAN], NAN), ([math.inf], math.inf),
                                        ([0.5, -math.inf], -math.inf), ([0.1, -0.2], -0.2)])
def test_encode_time_accounting_rejects_times_that_are_not_finite_and_nonnegative(times, bad):
    for account in (segment_encode_time, lambda t: encoding_energy(t, 1.0)):
        with pytest.raises(MetricsError) as info:
            account(times)
        assert str(info.value) == f"encode time must be finite and nonnegative, got {bad}"


@pytest.mark.parametrize("duration", [NAN, math.inf, 0.0, -4.0])
def test_compare_schemes_rejects_a_duration_that_is_not_finite_and_positive(duration):
    rng = np.random.default_rng(5)
    baseline, candidate = _scheme(rng), _scheme(rng)
    with pytest.raises(MetricsError) as info:
        compare_schemes(baseline, candidate, segment_duration_s=duration)
    assert str(info.value) == f"duration must be finite and positive, got {duration}"


def test_storage_examples():
    one = Ladder((Representation(360, 1.0),), LadderParams())
    assert storage(one, 4.0) == 4.0
    full = Ladder(
        tuple(Representation(360, b) for b in DEFAULT_BITRATES_MBPS), LadderParams()
    )
    # 4 s of every rung: 4 * sum of the twelve bitrates
    assert storage(full, 4.0) == pytest.approx(4.0 * sum(DEFAULT_BITRATES_MBPS), rel=1e-12)
    assert storage(full, 4.0) == pytest.approx(224.58, abs=1e-9)
    pruned = Ladder(tuple(full.reps[::2]), LadderParams())
    assert storage(pruned, 4.0) <= storage(full, 4.0)
    with pytest.raises(MetricsError):
        storage(one, 0.0)


# ----------------------------------------------------------- compare_schemes


def _segment(segment_id, reps):
    return EvaluatedSegment(segment_id, tuple(reps))


def _rep(bitrate, quality_psnr, quality_vmaf, time, resolution=720):
    return EvaluatedRep(
        bitrate=bitrate,
        resolution=resolution,
        encode_time=time,
        qualities={"psnr": quality_psnr, "vmaf": quality_vmaf},
    )


def _scheme(rng, n_segments=3, n_reps=5):
    segments = []
    for i in range(n_segments):
        rates = np.cumprod(rng.uniform(1.5, 2.5, n_reps)) * 0.3
        psnr = 30 + np.cumsum(rng.uniform(0.5, 3.0, n_reps))
        vmaf = 40 + np.cumsum(rng.uniform(2.0, 8.0, n_reps))
        times = rng.uniform(0.2, 4.0, n_reps)
        segments.append(
            _segment(
                f"seg{i}",
                [_rep(float(r), float(p), float(v), float(t)) for r, p, v, t in zip(rates, psnr, vmaf, times)],
            )
        )
    return segments


def test_identical_schemes_compare_to_zero():
    rng = np.random.default_rng(11)
    scheme = _scheme(rng)
    report = compare_schemes(scheme, scheme)
    assert report.bd_rate_psnr == pytest.approx(0.0, abs=1e-9)
    assert report.bd_rate_vmaf == pytest.approx(0.0, abs=1e-9)
    assert report.bd_psnr == pytest.approx(0.0, abs=1e-9)
    assert report.bd_vmaf == pytest.approx(0.0, abs=1e-9)
    assert report.delta_energy_pct == 0.0
    assert report.delta_storage_pct == 0.0
    assert len(report.segments) == 3


def test_dropping_half_the_reps_halves_energy_and_storage():
    # Equal per-rep times: keeping half the reps halves the energy sum.
    base_reps = [_rep(1.0 + i * 0.5, 30.0 + i, 40 + i, 1.0) for i in range(8)]
    cand_reps = base_reps[:4]
    report = compare_schemes([_segment("s", base_reps)], [_segment("s", cand_reps)])
    total_base = sum(r.bitrate for r in base_reps)
    total_cand = sum(r.bitrate for r in cand_reps)
    assert report.delta_energy_pct == pytest.approx(-50.0, abs=1e-12)
    assert report.delta_storage_pct == pytest.approx(
        100.0 * (total_cand - total_base) / total_base, abs=1e-12
    )


def test_delta_energy_is_kappa_invariant_and_storage_duration_invariant():
    rng = np.random.default_rng(13)
    for _ in range(50):
        baseline = _scheme(rng)
        candidate = _scheme(rng)
        a = compare_schemes(baseline, candidate, kappa=1.0, segment_duration_s=4.0)
        b = compare_schemes(baseline, candidate, kappa=37.5, segment_duration_s=11.0)
        assert a.delta_energy_pct == pytest.approx(b.delta_energy_pct, rel=1e-12)
        assert a.delta_storage_pct == pytest.approx(b.delta_storage_pct, rel=1e-12)


def test_segment_mismatch_rejected():
    rng = np.random.default_rng(14)
    baseline = _scheme(rng, n_segments=2)
    candidate = _scheme(rng, n_segments=3)
    with pytest.raises(SegmentMismatch):
        compare_schemes(baseline, candidate)


def test_bd_failures_reported_without_aborting():
    # Candidate has too few quality points per metric for a fit.
    base_reps = [_rep(1.0 + i, 30.0 + i, 40.0 + i, 1.0) for i in range(5)]
    cand_reps = [_rep(1.0 + i, 30.0 + i, 40.0 + i, 0.5) for i in range(3)]
    report = compare_schemes([_segment("s", base_reps)], [_segment("s", cand_reps)])
    assert report.bd_rate_psnr is None and report.bd_rate_vmaf is None
    entry = report.segments[0]
    assert "bd_error_psnr" in entry and "bd_error_vmaf" in entry
    assert report.delta_energy_pct == pytest.approx(100.0 * (1.5 - 5.0) / 5.0)
    assert report.mean_segment_time_s == 0.5


def test_report_schema_carries_full_result_rows():
    # Report fixture in the shape of a published comparison row: strong
    # savings on every axis must survive a dict round-trip unchanged.
    from ladderforge.metrics import SchemeReport

    report = SchemeReport(
        bd_rate_psnr=-24.65,
        bd_rate_vmaf=-32.70,
        bd_psnr=0.93,
        bd_vmaf=6.81,
        delta_energy_pct=-68.21,
        delta_storage_pct=-79.32,
        mean_segment_time_s=0.42,
    )
    doc = report.to_dict()
    assert doc == {
        "bd_rate_psnr": -24.65,
        "bd_rate_vmaf": -32.70,
        "bd_psnr": 0.93,
        "bd_vmaf": 6.81,
        "delta_energy_pct": -68.21,
        "delta_storage_pct": -79.32,
        "mean_segment_time_s": 0.42,
        "segments": [],
    }


def test_report_text_is_the_names_the_report_and_the_config_with_an_indent_of_2():
    report = metrics.SchemeReport(-24.65, None, 0.93, None, -68.21, -79.32, 0.42, ({"id": "s0"},))
    text = metrics.report_text("hls", "visor", report, {"seed": 7})
    assert list(json.loads(text)) == ["baseline", "candidate", *report.to_dict(), "config"]
    assert text.startswith('{\n  "baseline": "hls",\n  "candidate": "visor",\n')
    assert text.endswith('\n  "config": {\n    "seed": 7\n  }\n}\n')


_REPORT_FLOATS = st.none() | st.sampled_from([0.0, -0.0, 5e-324, -1.7976931348623157e308, 1e16, 0.1 + 0.2]) | st.floats(
    allow_nan=False, allow_infinity=False)
_TEXTS = st.sampled_from(["s0", "café", "☃ \"q\" \\ /", "a\nb", "", "},\n      {"]) | st.text()


@st.composite
def _entry(draw):
    """A breakdown entry as compare_schemes makes one, or now and then one
    holding a list or an object, or none at all."""
    entry = {"segment_id": draw(_TEXTS)}
    for kind in ("psnr", "vmaf"):
        if draw(st.booleans()):
            entry[f"bd_error_{kind}"] = draw(_TEXTS)
        else:
            entry[f"bd_rate_{kind}"], entry[f"bd_{kind}"] = draw(_REPORT_FLOATS), draw(_REPORT_FLOATS)
    entry["baseline_time_s"], entry["candidate_time_s"] = draw(_REPORT_FLOATS), draw(_REPORT_FLOATS)
    shape = draw(st.sampled_from(["flat"] * 8 + ["list", "object", "empty"]))
    if shape == "list":
        entry["extra"] = draw(st.lists(_REPORT_FLOATS, max_size=2))
    elif shape == "object":
        entry["extra"] = {"k": draw(_REPORT_FLOATS)}
    return {} if shape == "empty" else entry


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(_REPORT_FLOATS, min_size=7, max_size=7), st.lists(_entry(), max_size=4), _TEXTS, _TEXTS,
       st.sampled_from([RunConfig().to_dict(), dataclasses.replace(RunConfig(), tau_l=math.inf, v_j=None,
                                                                   v_t=None).to_dict(), {}]))
def test_report_text_is_json_dumps_with_an_indent_of_2(figures, entries, baseline, candidate, config_doc):
    report = metrics.SchemeReport(*figures, tuple(entries))
    doc = {"baseline": baseline, "candidate": candidate, **report.to_dict(), "config": config_doc}
    assert metrics.report_text(baseline, candidate, report, config_doc) == json.dumps(
        doc, indent=2, allow_nan=False) + "\n"


def test_report_text_refuses_non_finite_numbers():
    report = metrics.SchemeReport(math.nan, None, None, None, None, None, None)
    with pytest.raises(ValueError):
        metrics.report_text("hls", "visor", report, {})


def test_mean_segment_time_describes_candidate():
    base_reps = [_rep(1.0 + i, 30.0 + i, 40.0 + i, 2.0) for i in range(4)]
    cand_reps = [_rep(1.0 + i, 30.0 + i, 40.0 + i, 0.25 * (i + 1)) for i in range(4)]
    report = compare_schemes([_segment("s", base_reps)], [_segment("s", cand_reps)])
    assert report.mean_segment_time_s == 1.0
    assert report.segments[0]["baseline_time_s"] == 2.0


# --------------------------------------------------------- evaluation CSV


EVAL_CSV = """segment_id,scheme,bitrate_mbps,resolution,quality_metric,quality,encode_time_s
s0,default,1.0,360,psnr,30.5,0.4
s0,default,1.0,360,vmaf,45.0,0.4
s0,default,2.0,720,psnr,33.0,0.9
s1,default,1.0,360,psnr,29.0,0.3
"""


def test_load_evaluation_csv_makes_one_sorted_row_per_representation():
    table = load_evaluation_csv(EVAL_CSV.splitlines(True))
    assert table.scheme == "default" and table.segment_ids == ("s0", "s1")
    assert table_segments(table) == [
        ("s0", [(1.0, 360, 0.4, {"psnr": 30.5, "vmaf": 45.0}), (2.0, 720, 0.9, {"psnr": 33.0})]),
        ("s1", [(1.0, 360, 0.3, {"psnr": 29.0})]),
    ]
    for array in (table.segment, table.bitrate, table.resolution, table.encode_time, table.qualities,
                  table.present):
        assert not array.flags.writeable
    text = "\n".join([EVAL_CSV.splitlines()[0],
                      "b,x,2.0,720,psnr,1,0.5", "a,x,2.0,360,psnr,2,0.5", "b,x,1.0,1080,vmaf,3,0.1",
                      "a,x,1.0,720,psnr,4,0.2", "a,x,2.0,360,vmaf,5,0.5", "b,x,1,360,vmaf,6,0.1"]) + "\n"
    assert table_segments(load_evaluation_csv(text)) == [
        ("a", [(1.0, 720, 0.2, {"psnr": 4.0}), (2.0, 360, 0.5, {"psnr": 2.0, "vmaf": 5.0})]),
        ("b", [(1.0, 360, 0.1, {"vmaf": 6.0}), (1.0, 1080, 0.1, {"vmaf": 3.0}), (2.0, 720, 0.5, {"psnr": 1.0})]),
    ]


def test_load_evaluation_csv_builds_no_representation_object(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a representation object was built")

    monkeypatch.setattr(metrics, "EvaluatedRep", refuse)
    monkeypatch.setattr(metrics, "EvaluatedSegment", refuse)
    assert [len(reps) for _, reps in table_segments(load_evaluation_csv(EVAL_CSV))] == [2, 1]


@pytest.mark.parametrize("row, message", [
    ("s0,default,1.0,360,vmaf,45.0,-0.4", "line 3: encode time must be finite and nonnegative, got -0.4"),
    ("s0,default,1.0,360,vmaf,45.0,0.7", "line 3: encode time 0.7 contradicts 0.4 for the same representation"),
    ("s0,default,1.0,360,psnr,31.0,0.4", "line 3: duplicate psnr quality for one representation"),
    ("s0,default,1.0,360,vmaf,x,0.4", "line 3: could not convert string to float: 'x'"),
    ("s0,default,1.0,360,vmaf,45.0,inf", "line 3: not a finite number: 'inf'"),
    ("s0,default,1.0,360.0,vmaf,45.0,0.4", "line 3: invalid literal for int() with base 10: '360.0'"),
    ("s0,default,-1.0,360,vmaf,45.0,0.4", "line 3: bitrate must be finite and positive, got -1.0"),
])
def test_a_later_row_of_a_representation_keeps_its_own_error(row, message):
    text = "\n".join([EVAL_CSV.splitlines()[0], "s0,default,1.0,360,psnr,30.5,0.4", row]) + "\n"
    with pytest.raises(SegmentMismatch) as caught:
        load_evaluation_csv(text.splitlines(True))
    assert str(caught.value) == message


def test_load_evaluation_csv_rejects_inconsistencies():
    with pytest.raises(SegmentMismatch):
        load_evaluation_csv(["bad,header\n"])
    two_schemes = EVAL_CSV + "s1,other,2.0,720,psnr,31.0,0.5\n"
    with pytest.raises(SegmentMismatch, match="exactly one scheme"):
        load_evaluation_csv(two_schemes.splitlines(True))
    contradictory = EVAL_CSV + "s0,default,1.0,360,psnr,30.5,0.7\n"
    with pytest.raises(SegmentMismatch):
        load_evaluation_csv(contradictory.splitlines(True))


# Valid fields from small pools, so that rows meet on one representation and
# contradict or repeat each other, and fields that fail each check.
_GOOD = [
    st.sampled_from(["a", "b", "é"]),
    st.just("x"),
    st.sampled_from(["1.0", "1", "2.0", "2.5e0", " 3 "]),
    st.sampled_from(["360", "720", "+720", "1_080", "99999999999999999999"]),
    st.sampled_from(["psnr", "vmaf"]),
    st.sampled_from(["30", "31.5", "-0.0", "1e308"]),
    st.sampled_from(["0.4", "0.9", "0", "-0.0"]),
]
_BAD = [
    st.just("c"),
    st.just("y"),
    st.sampled_from(["-1.0", "0", "-0.0", "x", "inf", "nan"]),
    st.sampled_from(["360.0", "-5", "x"]),
    st.just("ssim"),
    st.sampled_from(["x", "nan", "-inf"]),
    st.sampled_from(["-0.4", "inf", "x"]),
]


@st.composite
def _row(draw):
    """A data row: valid, or with one or two fields drawn to fail."""
    bad = set(draw(st.just(()) | st.just(()) | st.lists(st.integers(0, 6), min_size=1, max_size=2)))
    return ",".join(draw(_BAD[i] if i in bad else _GOOD[i]) for i in range(7))


_LINES = st.one_of(
    _row(), _row(), _row(),
    st.sampled_from(["", "# a comment", "a,x,1.0", "a,x,1.0,360,psnr,30,0.4,extra", 'a,"x',
                     '"a\nb",x,1,360,psnr,30,0.4']),
)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.lists(_LINES, max_size=12), st.sampled_from([",".join(metrics.EVALUATION_CSV_HEADER)] * 9 + ["bad,header"]))
def test_the_evaluation_reader_equals_the_row_by_row_reference(lines, header):
    """The same table, or the same error with the same text and line, as the
    reader that grew one EvaluatedRep per representation (``conftest``)."""
    text = "\n".join([header, *lines]) + "\n"

    def outcome(read):
        try:
            return repr(read())
        except MetricsError as exc:
            return f"{type(exc).__name__}: {exc}"

    def new():
        table = load_evaluation_csv(text.splitlines(True))
        return table.scheme, table_segments(table)

    assert outcome(new) == outcome(lambda: reference_load_evaluation_csv(text.splitlines(True)))


def test_a_value_error_on_an_earlier_line_comes_before_a_later_structural_error():
    with pytest.raises(SegmentMismatch) as caught:
        load_evaluation_csv(EVAL_CSV + "s1,default,x,360,psnr,29.0,0.3\ns1,default,1.0\n")
    assert str(caught.value) == "line 6: could not convert string to float: 'x'"
    with pytest.raises(SegmentMismatch) as caught:
        load_evaluation_csv(EVAL_CSV + "s1,default,1.0\n")
    assert str(caught.value) == "line 6: expected 7 fields, got 3"
