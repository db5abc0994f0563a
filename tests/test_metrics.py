import math

import numpy as np
import pytest
from conftest import bd_quality_oracle, bd_rate_oracle, random_rd_pairs
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ladderforge.config import DEFAULT_BITRATES_MBPS
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
from ladderforge.metrics import _fit_cubic, _mean_poly_difference

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
    with np.errstate(all="ignore"):
        lhs = np.vander(x + 0.0, 4)
        scale = np.sqrt((lhs * lhs).sum(axis=0))
    if 0.0 in scale and x.any():
        # np.polyfit divides by the zero column scale, and LAPACK's solve
        # then never returns: only the reference is skipped.
        with pytest.raises(DegenerateFit):
            _fit_cubic(x, y)
        return
    try:
        with np.errstate(all="ignore"):  # numpy warns on scales it divides by 0
            coeffs, _residuals, rank, _sv, _rcond = np.polyfit(x, y, 3, full=True)
    except np.linalg.LinAlgError:
        rank = None
    if rank is None or rank < 4:
        with pytest.raises(DegenerateFit):
            _fit_cubic(x, y)
    else:
        assert not near
        assert _fit_cubic(x, y).tobytes() == coeffs.tobytes()


_COEFFS = st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=4, max_size=4).map(np.array)


@settings(max_examples=300, deadline=None)
@given(_COEFFS, _COEFFS, st.floats(-1e3, 1e3), st.floats(1e-9, 1e3))
def test_horner_integral_is_polyval_of_polyint_bit_for_bit(a, b, lo, width):
    hi = lo + width
    integral = np.polyint(np.polysub(a, b))
    want = float((np.polyval(integral, hi) - np.polyval(integral, lo)) / (hi - lo))
    assert np.float64(_mean_poly_difference(a, b, lo, hi)).tobytes() == np.float64(want).tobytes()


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


def test_load_evaluation_csv_groups_reps_and_metrics():
    scheme, segments = load_evaluation_csv(EVAL_CSV.splitlines(True))
    assert scheme == "default"
    by_id = {seg.segment_id: seg for seg in segments}
    s0 = by_id["s0"]
    assert len(s0.reps) == 2
    assert s0.reps[0].qualities == {"psnr": 30.5, "vmaf": 45.0}
    assert s0.reps[0].encode_time == 0.4
    assert by_id["s1"].reps[0].qualities == {"psnr": 29.0}


def test_load_evaluation_csv_rejects_inconsistencies():
    with pytest.raises(SegmentMismatch):
        load_evaluation_csv(["bad,header\n"])
    two_schemes = EVAL_CSV + "s1,other,2.0,720,psnr,31.0,0.5\n"
    with pytest.raises(SegmentMismatch, match="exactly one scheme"):
        load_evaluation_csv(two_schemes.splitlines(True))
    contradictory = EVAL_CSV + "s0,default,1.0,360,psnr,30.5,0.7\n"
    with pytest.raises(SegmentMismatch):
        load_evaluation_csv(contradictory.splitlines(True))
