"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The pass/fail lines bypass pytest's capture (via ``capsys.disabled``), so a
plain ``pytest tests/test_acceptance.py -v`` shows one line per criterion
with its runtime against the stated limit.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from conftest import (
    bd_quality_oracle,
    bd_rate_oracle,
    block_energy_direct,
    prune_oracle,
    random_rd_pairs,
    select_oracle,
    write_reference_y4m,
)

from ladderforge import cli
from ladderforge.complexity import block_texture_energy, frame_complexity, segment_features
from ladderforge.config import DEFAULT_BITRATES_MBPS, DEFAULT_RESOLUTIONS
from ladderforge.forest import Hyperparams, TrainingRecord, evaluate, fit, serialize_model
from ladderforge.ladder import (
    Ladder,
    LadderParams,
    PredictionGrid,
    Representation,
    prune_jnd,
    select_resolution,
)
from ladderforge.media import (
    MalformedHeader,
    TruncatedFrame,
    UnsupportedColorspace,
    ZeroFrames,
    parse_y4m,
    serialize_y4m,
)
from ladderforge.metrics import (
    EvaluatedRep,
    EvaluatedSegment,
    RdCurve,
    bd_quality,
    bd_rate,
    compare_schemes,
    segment_encode_time,
)


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def _criterion(number, label, limit_s):
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"[criterion {number}] FAIL - {label}", flush=True)
            raise
        elapsed = time.perf_counter() - start
        with capsys.disabled():
            print(
                f"[criterion {number}] PASS in {elapsed:.2f}s (limit {limit_s:g}s) - {label}",
                flush=True,
            )
        assert elapsed < limit_s, f"criterion {number} took {elapsed:.2f}s, limit {limit_s}s"

    return _criterion


def _ladder_from_qualities(qualities):
    reps = tuple(
        Representation(360, float(i + 1), predicted_vmaf=q, predicted_time=0.1)
        for i, q in enumerate(qualities)
    )
    return Ladder(reps, LadderParams())


def test_criterion_1_pruning_matches_independent_interpreter(criterion):
    with criterion(1, "JND pruning == line-by-line interpreter on 500 random cases", 1.0):
        rng = np.random.default_rng(101)
        for _ in range(500):
            m = int(rng.integers(1, 13))
            qualities = [float(q) for q in rng.uniform(30.0, 100.0, m)]
            v_j = float(rng.choice([2.0, 4.0, 6.0]))
            v_t = float(rng.choice([94.0, 96.0, 98.0]))
            ladder = _ladder_from_qualities(qualities)
            kept = prune_jnd(ladder, v_j, v_t)
            got = [ladder.reps.index(rep) for rep in kept.reps]
            assert got == prune_oracle(qualities, v_j, v_t), (qualities, v_j, v_t)
        # hand-traced case: 1-based kept set {1, 3, 4, 5}, early return at 95
        ladder = _ladder_from_qualities([40.0, 45.0, 52.0, 60.0, 95.0])
        kept = prune_jnd(ladder, v_j=6.0, v_t=94.0)
        assert [ladder.reps.index(rep) for rep in kept.reps] == [0, 2, 3, 4]


def test_criterion_2_selection_matches_exhaustive_argmax(criterion):
    with criterion(2, "resolution selection == exhaustive search on 10,000 grids", 5.0):
        rng = np.random.default_rng(202)
        taus = [0.5, 1.0, 2.0, 4.0, 8.0, math.inf]
        resolutions = list(DEFAULT_RESOLUTIONS)
        for i in range(10_000):
            qualities = rng.uniform(0.0, 100.0, (4, 12))
            times = rng.uniform(0.0, 10.0, (4, 12))
            entries = {
                (r, b): (float(qualities[ri, bi]), float(times[ri, bi]))
                for ri, r in enumerate(DEFAULT_RESOLUTIONS)
                for bi, b in enumerate(DEFAULT_BITRATES_MBPS)
            }
            grid = PredictionGrid(DEFAULT_RESOLUTIONS, DEFAULT_BITRATES_MBPS, qualities, times)
            tau = taus[i % len(taus)]
            bitrate = float(DEFAULT_BITRATES_MBPS[i % 12])
            got = select_resolution(grid, bitrate, tau)
            assert tuple(got) == select_oracle(entries, resolutions, bitrate, tau)


def test_criterion_3_bd_metrics_analytic_and_oracle(criterion):
    with criterion(3, "BD metrics: analytic cases exact, 1,000 pairs vs trapezoid oracle", 30.0):
        base = [(0.5, 34.0), (1.2, 38.5), (3.0, 42.0), (7.5, 45.0), (15.0, 46.5)]
        ref = RdCurve.from_pairs(base, "psnr")
        assert bd_rate(ref, ref) == 0.0
        assert bd_quality(ref, ref) == 0.0
        doubled = RdCurve.from_pairs([(2 * r, q) for r, q in base], "psnr")
        assert bd_rate(ref, doubled) == pytest.approx(100.0, abs=1e-6)
        lifted = RdCurve.from_pairs([(r, q + 1.0) for r, q in base], "psnr")
        assert bd_quality(ref, lifted) == pytest.approx(1.0, abs=1e-9)
        rng = np.random.default_rng(303)
        for _ in range(1000):
            a = random_rd_pairs(rng, n_points=int(rng.integers(4, 7)))
            b = random_rd_pairs(rng, n_points=int(rng.integers(4, 7)))
            curve_a = RdCurve.from_pairs(a, "vmaf")
            curve_b = RdCurve.from_pairs(b, "vmaf")
            assert bd_rate(curve_a, curve_b) == pytest.approx(bd_rate_oracle(a, b), abs=0.01)
            assert bd_quality(curve_a, curve_b) == pytest.approx(
                bd_quality_oracle(a, b), abs=0.001
            )


def test_criterion_4_complexity_features(criterion):
    with criterion(4, "complexity: constants zero, 100 blocks vs direct DCT oracle", 30.0):
        constant = np.full((64, 64), 131, dtype=np.uint8)
        fc = frame_complexity(constant)
        assert fc.texture_energy == 0.0 and fc.temporal_gradient == 0.0
        features = segment_features([constant, constant, constant])
        assert features.texture_energy == 0.0 and features.temporal_gradient == 0.0
        rng = np.random.default_rng(404)
        varying = rng.integers(0, 256, (64, 64)).astype(np.uint8)
        assert frame_complexity(varying, varying).temporal_gradient == 0.0
        for _ in range(100):
            tile = rng.integers(0, 256, (32, 32)).astype(np.float64)
            assert block_texture_energy(tile) == pytest.approx(
                block_energy_direct(tile), abs=1e-9
            )
            assert block_texture_energy(255.0 - tile) == pytest.approx(
                block_texture_energy(tile), abs=1e-9
            )


def _forest_ground_truth(rng, n, sigma):
    """clamp(100 - a/log2(1000 b) - c*E/(r/1080)) with a=120, c=4, noise sigma."""
    records = []
    for _ in range(n):
        e = float(rng.uniform(0.0, 5.0))
        h = float(rng.uniform(0.0, 3.0))
        l = float(rng.uniform(20.0, 230.0))
        r = int(rng.choice(DEFAULT_RESOLUTIONS))
        b = float(rng.choice(DEFAULT_BITRATES_MBPS))
        v = 100.0 - 120.0 / math.log2(1000.0 * b) - 4.0 * e / (r / 1080.0)
        v = min(100.0, max(0.0, v + float(rng.normal(0.0, sigma))))
        records.append(TrainingRecord(e, h, l, r, b, v, "quality"))
    return records


def test_criterion_5_forest_quality_and_determinism(criterion):
    with criterion(5, "forest: held-out MAE <= 3.0 on synthetic truth; byte-identical replay", 60.0):
        rng = np.random.default_rng(505)
        train = _forest_ground_truth(rng, 2000, sigma=2.0)
        held_out = _forest_ground_truth(rng, 400, sigma=2.0)
        hp = Hyperparams(n_trees=100, max_depth=12, min_samples_leaf=2, features_per_split=3)
        model = fit(train, hp, seed=1234)
        stats = evaluate(model, held_out)
        assert stats.mae <= 3.0, f"held-out MAE {stats.mae:.3f} exceeds 3.0"
        again = fit(train, hp, seed=1234)
        assert serialize_model(model) == serialize_model(again)
        other = fit(train, hp, seed=1235)
        assert serialize_model(model) != serialize_model(other)


# ------------------------------------------------------------- end-to-end


def _true_quality(e, r, b):
    return min(100.0, max(0.0, 108.0 - 160.0 / math.log2(1000.0 * b) - 0.25 * e * 1080.0 / r))


def _true_psnr(e, r, b):
    return 28.0 + 1.1 * math.log2(1000.0 * b) - 0.03 * e * 1080.0 / r


def _true_time(e, r, b):
    scale = (r / 360.0) ** 1.5
    return 0.05 * scale * (1.0 + 0.3 * math.log2(b / 0.145)) * (1.0 + 0.01 * e)


def _manifest_reps(out_dir, segment_id):
    doc = json.loads((out_dir / f"ladder_{segment_id}.json").read_text())
    return doc["reps"]


def test_criterion_6_end_to_end_pipeline(tmp_path, criterion):
    with criterion(6, "synthetic end-to-end: analyze -> train -> ladder -> evaluate", 120.0):
        segment_specs = [
            ("seg0", "synth:noise:64x64x4@30:sigma=6:seed=1:id=seg0"),
            ("seg1", "synth:noise:64x64x4@30:sigma=14:seed=2:id=seg1"),
            ("seg2", "synth:noise:64x64x4@30:sigma=25:seed=3:id=seg2"),
            ("seg3", "synth:moving_gradient:64x64x4@30:velocity=2:id=seg3"),
            ("seg4", "synth:checkerboard:64x64x4@30:period=4:id=seg4"),
            ("seg5", "synth:constant:64x64x4@30:level=90:id=seg5"),
        ]
        feature_dir = tmp_path / "features"
        assert cli.main(
            ["analyze", *[spec for _, spec in segment_specs], "--out", str(feature_dir)]
        ) == 0
        from ladderforge.complexity import read_features_csv

        with open(feature_dir / "features.csv") as handle:
            rows = read_features_csv(handle)
        assert [sid for sid, _ in rows] == [sid for sid, _ in segment_specs]

        # Synthesize measured targets from a smooth ground truth + seeded noise.
        rng = np.random.default_rng(606)
        lines = ["segment_id,E_Y,h,L_Y,resolution,bitrate_mbps,vsr_tag,target_kind,target\n"]
        for sid, features in rows:
            e = features.texture_energy
            for r in DEFAULT_RESOLUTIONS:
                for b in DEFAULT_BITRATES_MBPS:
                    v = _true_quality(e, r, b) + float(rng.normal(0, 0.5))
                    t = max(0.01, _true_time(e, r, b) * (1.0 + float(rng.normal(0, 0.02))))
                    prefix = (
                        f"{sid},{features.texture_energy!r},{features.temporal_gradient!r},"
                        f"{features.brightness!r},{r},{b!r},none,"
                    )
                    lines.append(prefix + f"quality,{min(100.0, max(0.0, v))!r}\n")
                    lines.append(prefix + f"time,{t!r}\n")
        train_csv = tmp_path / "train.csv"
        train_csv.write_text("".join(lines))
        models = tmp_path / "models"
        assert cli.main(
            ["train", str(train_csv), "--out", str(models), "--seed", "9",
             "--n-trees", "40", "--holdout", "0.15"]
        ) == 0

        features_csv = str(feature_dir / "features.csv")
        unpruned = tmp_path / "ladders_unpruned"
        assert cli.main(
            ["ladder", features_csv, "--models", str(models), "--out", str(unpruned),
             "--tau-l", "2", "--vj", "none"]
        ) == 0
        pruned = {}
        for v_j, v_t in ((2.0, 98.0), (6.0, 94.0)):
            out = tmp_path / f"ladders_vj{v_j:g}"
            assert cli.main(
                ["ladder", features_csv, "--models", str(models), "--out", str(out),
                 "--tau-l", "2", "--vj", str(v_j), "--vt", str(v_t)]
            ) == 0
            pruned[v_j] = out

        segment_ids = [sid for sid, _ in segment_specs]
        for sid in segment_ids:
            reps = _manifest_reps(unpruned, sid)
            assert len(reps) == 12
            assert all(rep["predicted_time_s"] <= 2.0 for rep in reps if not rep["over_budget"])
            for v_j, v_t in ((2.0, 98.0), (6.0, 94.0)):
                kept = _manifest_reps(pruned[v_j], sid)
                assert kept[0]["bitrate_mbps"] == reps[0]["bitrate_mbps"]  # rung 1 kept
                kept_v = [rep["predicted_vmaf"] for rep in kept]
                if not (len(kept) == 1 and kept_v[0] >= v_t):
                    assert all(b - a >= v_j for a, b in zip(kept_v, kept_v[1:]))
                above = [v for v in kept_v if v >= v_t]
                assert len(above) <= 1
                if above:
                    assert kept_v[-1] == above[0]
                assert all(rep["predicted_time_s"] <= 2.0
                           for rep in kept if not rep["over_budget"])

        # Widening the noticeable-difference step never costs storage on
        # segments whose unpruned quality column is monotone.
        monotone_checked = 0
        for sid in segment_ids:
            full = [rep["predicted_vmaf"] for rep in _manifest_reps(unpruned, sid)]
            if all(a <= b for a, b in zip(full, full[1:])):
                narrow = sum(r["bitrate_mbps"] for r in _manifest_reps(pruned[2.0], sid))
                wide = sum(r["bitrate_mbps"] for r in _manifest_reps(pruned[6.0], sid))
                assert wide <= narrow + 1e-12, sid
                monotone_checked += 1
        assert monotone_checked >= 1

        # Evaluate the vj=2 ladders against the fixed baseline using the
        # same ground-truth functions as "measurements".
        header = "segment_id,scheme,bitrate_mbps,resolution,quality_metric,quality,encode_time_s\n"
        base_lines = [header]
        cand_lines = [header]
        from ladderforge.ladder import default_hls_ladder

        baseline_ladder = default_hls_ladder(DEFAULT_BITRATES_MBPS)
        by_id = dict(rows)
        for sid in segment_ids:
            e = by_id[sid].texture_energy
            for rep in baseline_ladder.reps:
                r, b = rep.resolution, rep.bitrate
                t = _true_time(e, r, b)
                base_lines.append(f"{sid},default,{b!r},{r},vmaf,{_true_quality(e, r, b)!r},{t!r}\n")
                base_lines.append(f"{sid},default,{b!r},{r},psnr,{_true_psnr(e, r, b)!r},{t!r}\n")
            for rep in _manifest_reps(pruned[2.0], sid):
                r, b = rep["resolution"], rep["bitrate_mbps"]
                t = rep["predicted_time_s"]
                cand_lines.append(f"{sid},tuned,{b!r},{r},vmaf,{rep['predicted_vmaf']!r},{t!r}\n")
                cand_lines.append(f"{sid},tuned,{b!r},{r},psnr,{_true_psnr(e, r, b)!r},{t!r}\n")
        base_csv = tmp_path / "baseline.csv"
        cand_csv = tmp_path / "candidate.csv"
        base_csv.write_text("".join(base_lines))
        cand_csv.write_text("".join(cand_lines))
        report_dir = tmp_path / "report"
        assert cli.main(
            ["evaluate", str(base_csv), str(cand_csv), "--out", str(report_dir),
             "--kappa", "45", "--segment-duration", "4"]
        ) == 0
        report = json.loads((report_dir / "report.json").read_text())
        assert report["delta_storage_pct"] < 0  # pruning shrank the ladder
        assert report["delta_energy_pct"] < 0
        assert len(report["segments"]) == len(segment_ids)


def test_criterion_7_accounting_identities(criterion):
    with criterion(7, "segment time == sort oracle; delta invariances on 1,000 pairs", 5.0):
        rng = np.random.default_rng(707)
        for _ in range(1000):
            times = [float(t) for t in rng.uniform(0.0, 6.0, rng.integers(1, 13))]
            assert segment_encode_time(times) == sorted(times, reverse=True)[0]

        def scheme(seed_offset):
            gen = np.random.default_rng(808 + seed_offset)
            segments = []
            for i in range(2):
                reps = tuple(
                    EvaluatedRep(
                        bitrate=float(gen.uniform(0.1, 16.0)) + 0.001 * j,
                        resolution=720,
                        encode_time=float(gen.uniform(0.05, 4.0)),
                    )
                    for j in range(int(gen.integers(1, 8)))
                )
                segments.append(EvaluatedSegment(f"s{i}", reps))
            return segments

        for pair in range(1000):
            baseline = scheme(2 * pair)
            candidate = scheme(2 * pair + 1)
            a = compare_schemes(baseline, candidate, kappa=1.0, segment_duration_s=4.0)
            b = compare_schemes(baseline, candidate, kappa=311.7, segment_duration_s=0.25)
            assert a.delta_energy_pct == pytest.approx(b.delta_energy_pct, rel=1e-12)
            assert a.delta_storage_pct == pytest.approx(b.delta_storage_pct, rel=1e-12)


def test_criterion_8_y4m_roundtrip_and_rejection(criterion):
    with criterion(8, "Y4M round-trip across colorspaces; 5 malformed fixtures rejected", 5.0):
        rng = np.random.default_rng(909)
        for colorspace in ("420", "422", "444", "mono"):
            planes = [rng.integers(0, 256, (24, 20), dtype=np.uint8) for _ in range(8)]
            first = parse_y4m(write_reference_y4m(planes, colorspace=colorspace))
            second = parse_y4m(serialize_y4m(first))
            assert second == first
            assert all(
                np.array_equal(p, f.samples) for p, f in zip(planes, second.frames)
            )
        fixtures = [
            (b"YUVAMPEG2 W2 H2 F30:1\nFRAME\n" + bytes(6), MalformedHeader),
            (b"YUV4MPEG2 W2 F30:1\nFRAME\n" + bytes(6), MalformedHeader),
            (b"YUV4MPEG2 W2 H2 F30:1 C420p10\nFRAME\n" + bytes(12), UnsupportedColorspace),
            (b"YUV4MPEG2 W2 H2 F30:1 C420\nFRAME\n" + bytes(3), TruncatedFrame),
            (b"YUV4MPEG2 W2 H2 F30:1 C420\n", ZeroFrames),
        ]
        for blob, error in fixtures:
            with pytest.raises(error):
                parse_y4m(blob)
