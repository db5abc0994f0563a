import dataclasses
import errno
import json
import math
import mmap
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import write_reference_y4m

from ladderforge import cli
from ladderforge.complexity import read_features_csv, segment_features
from ladderforge.config import DEFAULT_BITRATES_MBPS, RunConfig
from ladderforge.errors import LadderforgeError
from ladderforge.forest import ForestModel, Hyperparams, serialize_model
from ladderforge.media import SyntheticSpec, generate_synthetic, serialize_y4m


def run(*argv):
    return cli.main(list(argv))


def _write_models(models_dir, quality=70.0, time=1.0, vsr="none"):
    models_dir.mkdir(parents=True, exist_ok=True)
    for kind, value in (("quality", quality), ("time", time)):
        model = ForestModel.from_trees(({"v": float(value)},), Hyperparams(n_trees=1), 0, kind, vsr)
        path = models_dir / f"model_{kind}_{vsr}.json"
        path.write_bytes(serialize_model(model))
    return models_dir


TRAIN_HEADER = "segment_id,E_Y,h,L_Y,resolution,bitrate_mbps,vsr_tag,target_kind,target\n"


def _training_csv(path, n=40, seed=0, vsrs=("none",)):
    rng = np.random.default_rng(seed)
    lines = [TRAIN_HEADER]
    for i in range(n):
        e = rng.uniform(0, 5)
        b = float(rng.choice(DEFAULT_BITRATES_MBPS))
        r = int(rng.choice([360, 720, 1080, 2160]))
        v = 100 - 40 / math.log2(1000 * b) - e
        for vsr in vsrs:
            lines.append(f"row{i},{e!r},0.1,120.0,{r},{b!r},{vsr},quality,{v!r}\n")
            lines.append(f"row{i},{e!r},0.1,120.0,{r},{b!r},{vsr},time,{0.1 + b * r / 1e5!r}\n")
    path.write_text("".join(lines))
    return path


# ----------------------------------------------------------------- analyze


def test_analyze_synth_segments_match_library(tmp_path):
    out = tmp_path / "out"
    code = run(
        "analyze",
        "synth:checkerboard:64x64x4@30:id=checker",
        "synth:noise:64x64x4@30:sigma=15:seed=3:id=noisy",
        "--out", str(out), "--seed", "1",
    )
    assert code == 0
    with open(out / "features.csv") as handle:
        rows = read_features_csv(handle)
    assert [sid for sid, _ in rows] == ["checker", "noisy"]
    expected = segment_features(
        generate_synthetic(SyntheticSpec(64, 64, 4, 30, "checkerboard"))
    )
    assert rows[0][1] == expected
    noisy = segment_features(
        generate_synthetic(SyntheticSpec(64, 64, 4, 30, "noise", seed=3, sigma=15.0))
    )
    assert rows[1][1] == noisy


def test_analyze_ten_segments_match_direct_library_calls(tmp_path):
    patterns = ["constant", "checkerboard", "noise", "moving_gradient"]
    specs = []
    for i in range(10):
        pattern = patterns[i % 4]
        specs.append(f"synth:{pattern}:32x32x3@30:seed={i}:id=s{i}")
    out = tmp_path / "out"
    assert run("analyze", *specs, "--out", str(out)) == 0
    with open(out / "features.csv") as handle:
        rows = read_features_csv(handle)
    assert len(rows) == 10
    for i, (sid, features) in enumerate(rows):
        assert sid == f"s{i}"
        seq = generate_synthetic(SyntheticSpec(32, 32, 3, 30, patterns[i % 4], seed=i))
        assert features == segment_features(seq)


def test_analyze_constant_segment_has_zero_energy_row(tmp_path):
    out = tmp_path / "out"
    assert run("analyze", "synth:constant:32x32x2@30:level=128", "--out", str(out)) == 0
    text = (out / "features.csv").read_text()
    assert "synth000,0.0,0.0,128.0" in text


def test_analyze_is_byte_deterministic(tmp_path, monkeypatch):
    spec = "synth:noise:32x32x3@30:sigma=20"
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run("analyze", spec, "--out", str(out_a), "--seed", "7") == 0
    monkeypatch.setenv(cli.THREADS_ENV, "1")
    assert run("analyze", spec, "--out", str(out_b), "--seed", "7") == 0
    assert (out_a / "features.csv").read_bytes() == (out_b / "features.csv").read_bytes()


def test_analyze_continues_past_bad_files(tmp_path, capsys):
    bad = tmp_path / "bad.y4m"
    bad.write_bytes(b"not a stream")
    out = tmp_path / "out"
    code = run("analyze", str(bad), "synth:constant:16x16x1@30", "--out", str(out))
    assert code == 2
    assert "bad.y4m" in capsys.readouterr().err
    with open(out / "features.csv") as handle:
        rows = read_features_csv(handle)
    assert len(rows) == 1


@pytest.mark.parametrize("token", ["synth:noise:99999999x99999999x1@30",
                                   "synth:constant:99999999x99999999x1@30"])
def test_analyze_rejects_a_synthetic_spec_too_large_to_hold(tmp_path, capsys, token):
    """The spec is refused before anything is allocated."""
    assert run("analyze", token, "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err == (f"error: {token}: sample count must be at most 2147483648, "
                                       "got 99999999x99999999x1\n")


def test_analyze_reads_y4m_and_raw_files(tmp_path):
    seq = generate_synthetic(SyntheticSpec(16, 16, 3, 30, "noise", seed=5))
    from ladderforge.media import serialize_y4m

    y4m = tmp_path / "clip.y4m"
    y4m.write_bytes(serialize_y4m(seq))
    raw = tmp_path / "clip_raw.yuv"
    raw.write_bytes(b"".join(f.tobytes() for f in seq.frames))
    out = tmp_path / "out"
    code = run(
        "analyze", str(y4m), str(raw),
        "--raw-width", "16", "--raw-height", "16", "--raw-fps", "30",
        "--out", str(out),
    )
    assert code == 0
    with open(out / "features.csv") as handle:
        rows = read_features_csv(handle)
    assert rows[0][1] == rows[1][1]  # same pixels, same features


@pytest.mark.parametrize("name", ["empty.y4m", "empty.yuv"])
def test_empty_input_files_are_data_errors_naming_the_file(tmp_path, capsys, name):
    path = tmp_path / name
    path.write_bytes(b"")  # a file that mmap refuses, so it is read instead
    code = run("analyze", str(path), "--raw-width", "16", "--raw-height", "16",
               "--out", str(tmp_path / "out"))
    assert code == 2
    assert f"error: {path}:" in capsys.readouterr().err


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs POSIX named pipes")
def test_a_fifo_input_is_read_whole_and_analyzed(tmp_path):
    seq = generate_synthetic(SyntheticSpec(16, 16, 3, 30, "noise", seed=5))
    fifo = tmp_path / "pipe.y4m"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(serialize_y4m(seq),), daemon=True)
    writer.start()
    out = tmp_path / "out"
    assert run("analyze", str(fifo), "--out", str(out)) == 0
    writer.join(timeout=10)
    assert not writer.is_alive()
    with open(out / "features.csv") as handle:
        assert read_features_csv(handle) == [("pipe", segment_features(seq))]


@pytest.mark.skipif(not (sys.platform.startswith("linux") and hasattr(mmap, "MADV_DONTNEED")),
                    reason="needs MADV_DONTNEED and /proc/self/status (Linux)")
def test_analyze_holds_a_frame_of_a_mapped_input_not_the_file(tmp_path):
    rng = np.random.default_rng(8)
    clip = tmp_path / "clip.y4m"
    clip.write_bytes(write_reference_y4m(
        [rng.integers(0, 256, (1080, 1920), dtype=np.uint8) for _ in range(8)]))
    # The child's own peak RSS: its ru_maxrss would start from this process's
    # peak, which exec carries over, so it reads VmHWM (KiB) instead.
    script = (
        "import sys\n"
        "from ladderforge import cli\n"
        "def peak():\n"
        "    with open('/proc/self/status') as status:\n"
        "        return next(int(line.split()[1]) for line in status if line.startswith('VmHWM:'))\n"
        "before = peak()\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(code, (peak() - before) * 1024)\n"
    )
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    result = subprocess.run(
        [sys.executable, "-c", script, "analyze", str(clip), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    code, grown = result.stdout.split()[-2:]
    assert code == "0", result.stderr
    # About 25 MB of input: reading it whole, or keeping every frame's pages, grows
    # the peak by more than half of it; releasing each frame's pages, by about a frame.
    assert int(grown) < clip.stat().st_size / 2


# ------------------------------------------------------------------- train


def test_train_writes_models_and_prints_holdout(tmp_path, capsys):
    csv_path = _training_csv(tmp_path / "train.csv")
    out = tmp_path / "models"
    assert run("train", str(csv_path), "--out", str(out), "--seed", "5") == 0
    printed = capsys.readouterr().out
    assert "quality/none" in printed and "time/none" in printed
    assert "held-out MAE" in printed
    for kind in ("quality", "time"):
        doc = json.loads((out / f"model_{kind}_none.json").read_text())
        assert doc["version"] == 1
        assert doc["config"]["seed"] == 5
        assert doc["hyperparams"]["seed"] == 5


def test_train_is_deterministic(tmp_path):
    csv_path = _training_csv(tmp_path / "train.csv")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run("train", str(csv_path), "--out", str(out_a), "--seed", "5") == 0
    assert run("train", str(csv_path), "--out", str(out_b), "--seed", "5") == 0
    assert (out_a / "model_quality_none.json").read_bytes() == (
        out_b / "model_quality_none.json"
    ).read_bytes()


def test_train_bytes_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, capsys):
    # Four groups share the pool; 7 trees make runs of 4 and 3 trees for two
    # workers and of 3, 3 and 1 for three, so no chunk size divides the count.
    csv_path = _training_csv(tmp_path / "train.csv", vsrs=("none", "fsrcnn"))
    models, printed = {}, {}
    for workers in ("1", "2", "3"):
        monkeypatch.setenv(cli.THREADS_ENV, workers)
        out = tmp_path / workers
        assert run("train", str(csv_path), "--out", str(out), "--seed", "5", "--n-trees", "7") == 0
        models[workers] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        printed[workers] = capsys.readouterr().out.replace(str(out), "OUT")
    assert sorted(models["1"]) == [f"model_{kind}_{vsr}.json" for kind in ("quality", "time")
                                   for vsr in ("fsrcnn", "none")]
    assert models["1"] == models["2"] == models["3"]
    assert printed["1"].count("held-out MAE") == 4
    assert printed["1"] == printed["2"] == printed["3"]


def test_train_groups_follow_the_string_order_of_kind_and_tag(tmp_path, capsys):
    """``fsrcnn`` sorts before ``none`` although VSR_TAGS lists ``none``
    first; each group trains on its own rows in file order."""
    none_rows = _training_csv(tmp_path / "none.csv", n=12, seed=1).read_text().splitlines(True)[1:]
    fsrcnn_rows = _training_csv(tmp_path / "fsrcnn.csv", n=12, seed=2, vsrs=("fsrcnn",)).read_text()
    both = tmp_path / "both.csv"
    both.write_text(TRAIN_HEADER + "".join(none_rows) + "".join(fsrcnn_rows.splitlines(True)[1:]))
    assert run("train", str(both), "--out", str(tmp_path / "both"), "--seed", "5", "--n-trees", "3") == 0
    printed = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
    assert printed == ["quality/fsrcnn", "quality/none", "time/fsrcnn", "time/none"]
    for vsr in ("none", "fsrcnn"):  # the same models as from a file of the group's rows alone
        assert run("train", str(tmp_path / f"{vsr}.csv"), "--out", str(tmp_path / vsr), "--seed", "5",
                   "--n-trees", "3") == 0
        for kind in ("quality", "time"):
            name = f"model_{kind}_{vsr}.json"
            assert (tmp_path / "both" / name).read_bytes() == (tmp_path / vsr / name).read_bytes()


def test_train_row_order_sensitivity_is_itself_deterministic(tmp_path):
    # Bootstrap indexes rows: reordering the rows is a different training
    # run, but each ordering reproduces bit-for-bit.
    csv_path = _training_csv(tmp_path / "train.csv")
    lines = csv_path.read_text().splitlines(True)
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text(lines[0] + "".join(reversed(lines[1:])))
    out = {}
    for name, source in (("orig", csv_path), ("rev", shuffled), ("rev2", shuffled)):
        out_dir = tmp_path / name
        assert run("train", str(source), "--out", str(out_dir), "--seed", "5") == 0
        out[name] = (out_dir / "model_quality_none.json").read_bytes()
    assert out["rev"] == out["rev2"]
    assert out["orig"] != out["rev"]


def test_train_constant_target_predicts_constant(tmp_path):
    lines = [TRAIN_HEADER]
    for i in range(10):
        lines.append(f"r{i},{float(i)!r},0.0,100.0,720,1.6,none,quality,55.0\n")
    csv_path = tmp_path / "train.csv"
    csv_path.write_text("".join(lines))
    out = tmp_path / "models"
    assert run("train", str(csv_path), "--out", str(out), "--holdout", "0") == 0
    from ladderforge.forest import deserialize_model, predict

    model = deserialize_model((out / "model_quality_none.json").read_text())
    assert predict(model, (3.0, 0.0, 100.0, 9.5, 0.7)) == 55.0


def test_train_schema_error_exits_with_data_code(tmp_path, capsys):
    csv_path = tmp_path / "train.csv"
    csv_path.write_text(TRAIN_HEADER + "r0,oops,0,1,720,1.6,none,quality,1\n")
    assert run("train", str(csv_path), "--out", str(tmp_path)) == 2
    assert "line 2" in capsys.readouterr().err


# ------------------------------------------------------------------ ladder


def _analyze_two_segments(tmp_path):
    out = tmp_path / "features"
    assert run(
        "analyze",
        "synth:noise:64x64x3@30:sigma=18:id=sega",
        "synth:moving_gradient:64x64x3@30:id=segb",
        "--out", str(out),
    ) == 0
    return out / "features.csv"


def test_ladder_opte_mode_keeps_all_rungs(tmp_path):
    features = _analyze_two_segments(tmp_path)
    models = _write_models(tmp_path / "models")
    out = tmp_path / "ladders"
    code = run(
        "ladder", str(features), "--models", str(models), "--out", str(out),
        "--tau-l", "inf", "--vj", "none",
    )
    assert code == 0
    doc = json.loads((out / "ladder_sega.json").read_text())
    assert doc["tau_L"] == "inf"
    assert doc["v_J"] is None and doc["v_T"] is None
    assert len(doc["reps"]) == 12
    assert [rep["bitrate_mbps"] for rep in doc["reps"]] == list(DEFAULT_BITRATES_MBPS)
    assert all(not rep["over_budget"] for rep in doc["reps"])


def test_ladder_low_quality_cap_gives_single_rung(tmp_path):
    features = _analyze_two_segments(tmp_path)
    models = _write_models(tmp_path / "models", quality=50.0)
    out = tmp_path / "ladders"
    code = run(
        "ladder", str(features), "--models", str(models), "--out", str(out),
        "--vj", "6", "--vt", "40",
    )
    assert code == 0
    for name in ("ladder_sega.json", "ladder_segb.json"):
        doc = json.loads((out / name).read_text())
        assert len(doc["reps"]) == 1


def test_ladder_missing_model_is_data_error(tmp_path, capsys):
    features = _analyze_two_segments(tmp_path)
    assert run("ladder", str(features), "--models", str(tmp_path / "nowhere"),
               "--out", str(tmp_path)) == 2
    assert "model file not found" in capsys.readouterr().err


def test_ladder_emits_baseline_manifest(tmp_path):
    features = _analyze_two_segments(tmp_path)
    models = _write_models(tmp_path / "models")
    out = tmp_path / "ladders"
    assert run("ladder", str(features), "--models", str(models), "--out", str(out),
               "--emit-baseline") == 0
    doc = json.loads((out / "ladder_baseline.json").read_text())
    assert len(doc["reps"]) == 12
    assert doc["reps"][0]["resolution"] == 360
    assert doc["reps"][-1]["resolution"] == 2160


def test_ladder_custom_pairing_round_trip(tmp_path):
    features = _analyze_two_segments(tmp_path)
    models = _write_models(tmp_path / "models")
    pairing = tmp_path / "pairing.csv"
    pairing.write_text(
        "bitrate_mbps,resolution\n"
        + "".join(f"{b!r},720\n" for b in DEFAULT_BITRATES_MBPS)
    )
    out = tmp_path / "ladders"
    assert run("ladder", str(features), "--models", str(models), "--out", str(out),
               "--pairing", str(pairing)) == 0
    doc = json.loads((out / "ladder_baseline.json").read_text())
    assert [rep["resolution"] for rep in doc["reps"]] == [720] * 12


def test_ladder_respects_vsr_tag(tmp_path, capsys):
    features = _analyze_two_segments(tmp_path)
    models = _write_models(tmp_path / "models", vsr="fsrcnn")
    out = tmp_path / "ladders"
    assert run("ladder", str(features), "--models", str(models), "--out", str(out),
               "--vsr", "fsrcnn") == 0
    doc = json.loads((out / "ladder_sega.json").read_text())
    assert doc["vsr_tag"] == "fsrcnn"
    # default vsr is "none": the fsrcnn model files should not satisfy it
    assert run("ladder", str(features), "--models", str(models), "--out", str(out)) == 2


# ---------------------------------------------------------------- evaluate


EVAL_HEADER = "segment_id,scheme,bitrate_mbps,resolution,quality_metric,quality,encode_time_s\n"


def _eval_csv(path, scheme, n_reps):
    lines = [EVAL_HEADER]
    for seg in ("s0", "s1"):
        for i in range(n_reps):
            b = 0.5 * (i + 1)
            for metric, q in (("psnr", 30.0 + 2 * i), ("vmaf", 40.0 + 6 * i)):
                lines.append(f"{seg},{scheme},{b!r},720,{metric},{q!r},1.0\n")
    path.write_text("".join(lines))
    return path


def test_evaluate_identical_schemes(tmp_path, capsys):
    base = _eval_csv(tmp_path / "base.csv", "default", 6)
    cand = _eval_csv(tmp_path / "cand.csv", "tuned", 6)
    out = tmp_path / "report"
    assert run("evaluate", str(base), str(cand), "--out", str(out)) == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["baseline"] == "default" and doc["candidate"] == "tuned"
    assert doc["bd_rate_psnr"] == pytest.approx(0.0, abs=1e-9)
    assert doc["bd_rate_vmaf"] == pytest.approx(0.0, abs=1e-9)
    assert doc["delta_energy_pct"] == 0.0
    assert doc["delta_storage_pct"] == 0.0
    assert doc["mean_segment_time_s"] == 1.0
    assert {"bd_psnr", "bd_vmaf", "segments", "config"} <= set(doc)


def test_evaluate_half_pruned_candidate(tmp_path):
    base = _eval_csv(tmp_path / "base.csv", "default", 8)
    cand = _eval_csv(tmp_path / "cand.csv", "pruned", 4)
    out = tmp_path / "report"
    assert run("evaluate", str(base), str(cand), "--out", str(out)) == 0
    doc = json.loads((out / "report.json").read_text())
    # times are equal per rep, so halving the rep count halves the energy
    assert doc["delta_energy_pct"] == pytest.approx(-50.0, abs=1e-12)
    base_total = sum(0.5 * (i + 1) for i in range(8))
    cand_total = sum(0.5 * (i + 1) for i in range(4))
    assert doc["delta_storage_pct"] == pytest.approx(
        100.0 * (cand_total - base_total) / base_total, abs=1e-12
    )


def test_evaluate_segment_mismatch_is_data_error(tmp_path, capsys):
    base = _eval_csv(tmp_path / "base.csv", "default", 5)
    cand = tmp_path / "cand.csv"
    lines = [EVAL_HEADER]
    for i in range(5):
        lines.append(f"sX,tuned,{0.5 * (i + 1)!r},720,psnr,{30.0 + i!r},1.0\n")
    cand.write_text("".join(lines))
    assert run("evaluate", str(base), str(cand), "--out", str(tmp_path)) == 2


# ------------------------------------------------------- config and errors


def test_usage_errors_exit_one():
    assert run("analyze") == 1
    assert run("nonsense") == 1
    assert run("ladder") == 1
    assert run("analyze", "synth:constant:4x4x1@30", "--tau-l", "soon") == 1


def test_config_file_with_flag_overrides(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"tau_l": "inf", "v_j": None, "v_t": None, "seed": 5}))
    out = tmp_path / "out"
    assert run("analyze", "synth:constant:16x16x1@30", "--config", str(config),
               "--out", str(out), "--seed", "9") == 0
    first_line = (out / "features.csv").read_text().splitlines()[0]
    assert first_line.startswith("# config ")
    echoed = json.loads(first_line[len("# config "):])
    assert echoed["seed"] == 9  # flag wins over file
    assert echoed["tau_l"] == "inf"


def test_unknown_config_key_rejected(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"tau": 2}))
    assert run("analyze", "synth:constant:4x4x1@30", "--config", str(config)) == 2


@pytest.mark.parametrize("config", [
    pytest.param(RunConfig(), id="default"),
    pytest.param(RunConfig(tau_l=math.inf), id="unbounded-latency"),
    pytest.param(RunConfig(v_j=None, v_t=None), id="no-pruning"),
])
def test_config_dict_follows_the_fields_and_round_trips(config):
    assert list(config.to_dict()) == [f.name for f in dataclasses.fields(RunConfig)]
    assert RunConfig.from_mapping(json.loads(json.dumps(config.to_dict()))) == config


_FLAG_CHANGES = [
    (["--seed", "7"], {"seed": 7}),
    (["--tau-l", "inf"], {"tau_l": math.inf}),
    (["--vj", "4"], {"v_j": 4.0}),
    (["--vj", "none"], {"v_j": None, "v_t": None}),
    (["--vt", "96"], {"v_t": 96.0}),
    (["--vsr", "fsrcnn"], {"vsr_tag": "fsrcnn"}),
    (["--block-size", "16"], {"block_size": 16}),
    (["--kappa", "2.5"], {"kappa": 2.5}),
    (["--segment-duration", "6"], {"segment_duration_s": 6.0}),
    (["--n-trees", "7"], {"n_trees": 7}),
    (["--max-depth", "5"], {"max_depth": 5}),
    (["--min-samples-leaf", "3"], {"min_samples_leaf": 3}),
    (["--features-per-split", "2"], {"features_per_split": 2}),
]


@pytest.mark.parametrize("flags, changes", _FLAG_CHANGES, ids=[" ".join(f) for f, _ in _FLAG_CHANGES])
def test_each_common_flag_sets_the_field_it_names(flags, changes):
    args = cli.build_parser().parse_args(["evaluate", "a.csv", "b.csv", *flags])
    assert cli._load_config(args) == dataclasses.replace(RunConfig(), **changes)


def test_thread_env_validation(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.THREADS_ENV, "zero")
    assert run("analyze", "synth:constant:4x4x1@30", "--out", str(tmp_path)) == 2
    csv_path = _training_csv(tmp_path / "train.csv")
    assert run("train", str(csv_path), "--out", str(tmp_path / "models")) == 2
    assert not (tmp_path / "models" / "model_quality_none.json").exists()
    monkeypatch.setenv(cli.THREADS_ENV, "2")
    assert run("analyze", "synth:constant:4x4x1@30", "--out", str(tmp_path)) == 0


@pytest.mark.parametrize("size", ["257", "100000"])  # 100000's transform basis needs 74.5 GiB
def test_block_size_above_256_is_refused_before_any_allocation(tmp_path, capsys, size):
    assert run("analyze", "synth:constant:4x4x1@30", "--out", str(tmp_path),
               "--block-size", size) == 2
    assert f"block_size must be at most 256, got {size}" in capsys.readouterr().err
    assert not (tmp_path / "features.csv").exists()


def test_block_size_256_is_accepted(tmp_path):
    assert run("analyze", "synth:constant:4x4x1@30", "--out", str(tmp_path),
               "--block-size", "256") == 0


@pytest.mark.parametrize("spec, code", [
    ("synth:moving_gradient:4x4x2@30:velocity=1e308", 0),
    ("synth:moving_gradient:4x4x3@30:velocity=1e19", 0),
    ("synth:checkerboard:4x4x1@30:period=99999999999999999999999", 0),
    ("synth:moving_gradient:4x4x3@30:velocity=1e308", 2),  # 2e308 overflows
])
def test_extreme_synthetic_parameters_are_drawn_or_refused(tmp_path, spec, code):
    assert run("analyze", spec, "--out", str(tmp_path)) == code


def test_vj_none_conflicts_with_vt(tmp_path):
    assert run("analyze", "synth:constant:4x4x1@30", "--out", str(tmp_path),
               "--vj", "none", "--vt", "94") == 2


def test_bad_vj_values_are_data_errors(tmp_path):
    base = ("analyze", "synth:constant:4x4x1@30", "--out", str(tmp_path))
    assert run(*base, "--vj", "abc") == 2
    assert run(*base, "--vj", "-3") == 2


def test_duplicate_segment_ids_rejected(tmp_path):
    assert run(
        "analyze",
        "synth:constant:4x4x1@30:id=same", "synth:constant:8x8x1@30:id=same",
        "--out", str(tmp_path),
    ) == 2


# ------------------------------------------------------------ input errors


def test_train_rejects_non_finite_feature_naming_file_and_line(tmp_path, capsys):
    csv_path = tmp_path / "train.csv"
    csv_path.write_text(TRAIN_HEADER + "r0,nan,0.1,120.0,720,1.6,none,quality,50\n")
    out = tmp_path / "models"
    assert run("train", str(csv_path), "--out", str(out)) == 2
    assert f"{csv_path}: line 2: not a finite number: 'nan'" in capsys.readouterr().err
    assert not list(out.iterdir())


def test_train_rejects_overflowing_targets_naming_the_file(tmp_path, capsys):
    csv_path = tmp_path / "train.csv"
    csv_path.write_text(TRAIN_HEADER + "".join(
        f"r{i},{i}.0,0.1,120.0,720,1.6,none,time,{1e200 * (i + 1)!r}\n" for i in range(5)))
    out = tmp_path / "models"
    assert run("train", str(csv_path), "--out", str(out)) == 2
    assert f"{csv_path}: targets up to 5e+200 overflow" in capsys.readouterr().err
    assert not list(out.iterdir())


def test_train_checks_every_group_before_writing_any_model(tmp_path, capsys):
    # The quality group sorts first and trains; the time group's targets overflow.
    csv_path = _training_csv(tmp_path / "train.csv")
    csv_path.write_text("".join(line if ",time," not in line else line.rsplit(",", 1)[0] + ",1e200\n"
                                for line in csv_path.read_text().splitlines(True)))
    out = tmp_path / "models"
    assert run("train", str(csv_path), "--out", str(out)) == 2
    assert f"{csv_path}: targets up to 1e+200 overflow" in capsys.readouterr().err
    assert not list(out.iterdir())


def test_a_failed_first_model_write_is_one_error_and_leaves_no_worker(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.THREADS_ENV, "2")
    csv_path = _training_csv(tmp_path / "train.csv", vsrs=("none", "fsrcnn"))
    out = tmp_path / "models"
    with monkeypatch.context() as patch:
        _install_write_faults(patch, "replace", 1)  # the first model, while three groups queue
        assert run("train", str(csv_path), "--out", str(out), "--n-trees", "8") == cli.EXIT_DATA
    assert multiprocessing.active_children() == []
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    enospc = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    assert errors == [f"error: cannot write {out / 'model_quality_fsrcnn.json'}: {enospc}"]
    assert not list(out.iterdir())  # no model and no temp file


@pytest.mark.parametrize("flags, message", [
    (["--kappa", "inf"], "kappa must be positive and finite, got inf"),
    (["--vt", "nan"], "v_t must be finite, got nan"),
    (["--vj", "nan"], "v_j must be positive and finite, got nan"),
    (["--segment-duration", "1e999"], "segment_duration_s must be positive and finite, got inf"),
    (["--tau", "nan"], "tau_l must be positive, got nan"),
])
def test_train_rejects_non_finite_config_values(tmp_path, capsys, flags, message):
    out = tmp_path / "models"
    assert run("train", str(_training_csv(tmp_path / "train.csv")), "--out", str(out), *flags) == 2
    assert message in capsys.readouterr().err
    assert not out.exists() or not list(out.iterdir())


def test_evaluate_rejects_non_finite_time_and_writes_no_report(tmp_path, capsys):
    base = _eval_csv(tmp_path / "base.csv", "default", 6)
    cand = _eval_csv(tmp_path / "cand.csv", "tuned", 6)
    lines = cand.read_text().splitlines(True)
    lines[3] = lines[3].rsplit(",", 1)[0] + ",nan\n"
    cand.write_text("".join(lines))
    out = tmp_path / "report"
    assert run("evaluate", str(base), str(cand), "--out", str(out)) == 2
    assert f"{cand}: line 4" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("base_rates, cand_rates, qualities, error", [
    # 10**600 overflows a float: once as the BD-rate, once as the storage delta
    ([1e-300, 2e-300, 3e-300, 4e-300], [1e300, 2e300, 3e300, 4e300], [30.0, 31.0, 32.0, 33.0],
     "BD-rate overflows (mean log10 rate difference 600.0)"),
    # the vandermonde matrix overflows, where lstsq's SVD would not converge
    ([1.0, 2.0, 3.0, 4.0], [1.5, 2.5, 3.5, 4.5], [1e200, 2e200, 3e200, 4e200],
     "cubic fit overflows float64 (abscissae up to 4e+200)"),
    # the vandermonde matrix is finite, but the squares of its cubes overflow
    ([1.0, 2.0, 3.0, 4.0], [1.5, 2.5, 3.5, 4.5], [1e100, 2e100, 3e100, 4e100],
     "cubic fit overflows float64 (abscissae up to 4e+100)"),
], ids=["rate-overflow", "unconverged-fit", "overflowing-scale"])
def test_evaluate_records_extreme_but_finite_inputs_as_bd_errors(
        tmp_path, capfd, base_rates, cand_rates, qualities, error):
    paths = []
    for scheme, rates in (("hls", base_rates), ("tuned", cand_rates)):
        paths.append(tmp_path / f"{scheme}.csv")
        paths[-1].write_text(EVAL_HEADER + "".join(
            f"s0,{scheme},{b!r},720,psnr,{q!r},1.0\n" for b, q in zip(rates, qualities)))
    out = tmp_path / "report"
    assert run("evaluate", *map(str, paths), "--out", str(out)) == 0
    doc = json.loads((out / "report.json").read_text(), parse_constant=pytest.fail)  # no inf/nan
    assert doc["segments"][0]["bd_error_psnr"] == error
    assert doc["bd_rate_psnr"] is None and doc["bd_psnr"] is None
    assert capfd.readouterr().err == ""  # no numpy warning, no LAPACK message


def test_failed_write_keeps_the_old_file_and_leaves_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "report.json"
    path.write_text("old\n")
    real_write = os.write

    def write_half(fd, data):
        real_write(fd, data[:len(data) // 2])
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli.os, "write", write_half)
    with pytest.raises(LadderforgeError, match=f"cannot write {re.escape(str(path))}: "
                                               r"\[Errno 28\] No space left on device$"):
        cli._write_file(path, "new, but only half of it")
    monkeypatch.undo()
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
    cli._write_file(path, '{"delta": 1.5}\n')
    assert json.loads(path.read_text()) == {"delta": 1.5}
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_short_writes_are_resumed(tmp_path, monkeypatch):
    real_write = os.write
    monkeypatch.setattr(cli.os, "write", lambda fd, data: real_write(fd, data[:3]))
    cli._write_file(tmp_path / "x.json", "é, then the rest of the text\n")
    monkeypatch.undo()
    assert (tmp_path / "x.json").read_text(encoding="utf-8") == "é, then the rest of the text\n"


def test_a_failed_manifest_write_keeps_earlier_manifests_whole(tmp_path, monkeypatch):
    features = tmp_path / "features.csv"
    features.write_text("segment_id,E_Y,h,L_Y\n" + "".join(f"s{i},{i}.0,0.5,100.0\n" for i in range(4)))
    models = _write_models(tmp_path / "models")
    out, fresh = tmp_path / "ladders", tmp_path / "fresh"
    argv = ["ladder", str(features), "--models", str(models), "--emit-baseline"]
    assert run(*argv, "--out", str(out)) == 0
    old = {path.name: path.read_bytes() for path in out.iterdir()}
    assert run(*argv, "--out", str(fresh), "--tau-l", "5") == 0
    new = {path.name: path.read_bytes() for path in fresh.iterdir()}
    real_replace, replaced = os.replace, []

    def fail_the_third(src, dst, **dir_fds):
        if len(replaced) == 2:
            raise OSError(28, "No space left on device")
        real_replace(src, dst, **dir_fds)
        replaced.append(Path(dst).name)

    monkeypatch.setattr(cli.os, "replace", fail_the_third)
    assert run(*argv, "--out", str(out), "--tau-l", "5") == cli.EXIT_DATA
    monkeypatch.undo()
    assert sorted(path.name for path in out.iterdir()) == sorted(old)  # no temp file
    for name in old:
        assert (out / name).read_bytes() == (new[name] if name in replaced else old[name])
    assert len(replaced) == 2 and all(old[name] != new[name] for name in replaced)


def _install_write_faults(monkeypatch, call, fail_at):
    """Wrap the ``os`` calls of ``_write_file`` so that the ``fail_at``-th
    artifact write (from 1; None for none) fails with ENOSPC in ``os.<call>``.
    Returns the list of file names renamed into place, filled as they are."""
    real_open, real_write, real_replace = os.open, os.write, os.replace
    temps, replaced = [], []

    def fail(name, nth):
        if name == call and nth == fail_at:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def open_(path, *args, **kwargs):
        if not str(path).endswith(".tmp"):
            return real_open(path, *args, **kwargs)
        fail("open", len(temps) + 1)
        temps.append(real_open(path, *args, **kwargs))
        return temps[-1]

    def write(fd, data):
        if temps and fd == temps[-1]:
            fail("write", len(temps))
        return real_write(fd, data)

    def replace(src, dst, **dir_fds):
        fail("replace", len(replaced) + 1)
        real_replace(src, dst, **dir_fds)
        replaced.append(Path(dst).name)

    for name, wrapper in (("open", open_), ("write", write), ("replace", replace)):
        monkeypatch.setattr(cli.os, name, wrapper)
    return replaced


def _artifact_argv(command, tmp_path):
    if command == "analyze":
        return ["analyze", "synth:checkerboard:16x16x2@30:id=a", "synth:noise:16x16x2@30:id=b"]
    if command == "train":
        return ["train", str(_training_csv(tmp_path / "train.csv")), "--n-trees", "2"]
    if command == "ladder":
        features = tmp_path / "features.csv"
        features.write_text("segment_id,E_Y,h,L_Y\n" + "".join(f"s{i},{i}.0,0.5,100.0\n" for i in range(3)))
        return ["ladder", str(features), "--models", str(_write_models(tmp_path / "models")),
                "--emit-baseline"]
    return ["evaluate", str(_eval_csv(tmp_path / "base.csv", "default", 6)),
            str(_eval_csv(tmp_path / "cand.csv", "tuned", 6))]


@pytest.mark.parametrize("call", ["open", "write", "replace"])
@pytest.mark.parametrize("command", ["analyze", "train", "ladder", "evaluate"])
def test_a_failed_artifact_write_is_a_data_error_naming_the_file(tmp_path, monkeypatch, capsys,
                                                                 command, call):
    monkeypatch.setenv(cli.THREADS_ENV, "1")
    argv = _artifact_argv(command, tmp_path)
    whole, broken = tmp_path / "whole", tmp_path / "broken"
    with monkeypatch.context() as patch:
        order = _install_write_faults(patch, call, None)
        assert run(*argv, "--out", str(whole)) == cli.EXIT_OK
    assert sorted(order) == sorted(path.name for path in whole.iterdir())
    capsys.readouterr()
    with monkeypatch.context() as patch:
        _install_write_faults(patch, call, len(order))  # the last artifact
        assert run(*argv, "--out", str(broken)) == cli.EXIT_DATA
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    enospc = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    assert errors == [f"error: cannot write {broken / order[-1]}: {enospc}"]
    assert sorted(path.name for path in broken.iterdir()) == sorted(order[:-1])  # no temp file
    for name in order[:-1]:
        assert (broken / name).read_bytes() == (whole / name).read_bytes()


def test_oversized_field_and_undecodable_bytes_are_data_errors(tmp_path, capsys):
    big = tmp_path / "big.csv"
    big.write_text(TRAIN_HEADER + "x" * 200_000 + ",1,0.1,120.0,720,1.6,none,quality,50\n")
    assert run("train", str(big), "--out", str(tmp_path / "m1")) == 2
    assert f"{big}: line 2: field larger than field limit" in capsys.readouterr().err
    binary = tmp_path / "binary.csv"
    binary.write_bytes(TRAIN_HEADER.encode() + b"\xff\xfe,1,0.1,120.0,720,1.6,none,quality,50\n")
    assert run("train", str(binary), "--out", str(tmp_path / "m2")) == 2
    assert f"cannot read {binary}" in capsys.readouterr().err


@pytest.mark.parametrize("ids, flag, clash", [
    (("a/b", "a_b"), (), "'a/b' and 'a_b'"),
    (("baseline",), ("--emit-baseline",), "'baseline' and 'baseline'"),
])
def test_ladder_refuses_colliding_manifest_names(tmp_path, capsys, ids, flag, clash):
    features = tmp_path / "features.csv"
    features.write_text("segment_id,E_Y,h,L_Y\n" + "".join(f"{sid},1.0,0.5,100.0\n" for sid in ids))
    models = _write_models(tmp_path / "models")
    out = tmp_path / "ladders"
    assert run("ladder", str(features), "--models", str(models), "--out", str(out), *flag) == 2
    assert f"ladders {clash} would both be written to" in capsys.readouterr().err
    assert not list(out.iterdir())


def test_worker_count_follows_cpu_affinity(monkeypatch):
    monkeypatch.delenv(cli.THREADS_ENV, raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli._worker_count(4) == 1
    monkeypatch.delattr(cli.os, "sched_getaffinity")
    assert cli._worker_count(4) == 4
    monkeypatch.setenv(cli.THREADS_ENV, "3")
    assert cli._worker_count(4) == 3


# A model whose one tree nests 3,000 levels deep: too deep for json.loads.
_DEEP_MODEL = serialize_model(
    ForestModel.from_trees(({"v": 1.0},), Hyperparams(n_trees=1), 0, "time", "none")
).replace(b'{"v":1.0}', b'{"f":0,"t":0.0,"l":{"v":0.0},"r":' * 3000 + b'{"v":1.0}' + b"}" * 3000)
# Two trees whose right leaves add past the float64 maximum.
_OVERFLOWING = serialize_model(ForestModel.from_trees(
    ({"f": 0, "t": 5.0, "l": {"v": 1.0}, "r": {"v": 1.0}},) * 2, Hyperparams(n_trees=2), 0, "time", "none")
).replace(b'"r":{"v":1.0}', b'"r":{"v":1e+308}')
# JSON booleans where the wire format wants numbers.
_STUMP = serialize_model(ForestModel.from_trees(
    ({"f": 0, "t": 1.0, "l": {"v": 0.5}, "r": {"v": 2.0}},), Hyperparams(n_trees=1), 0, "time", "none"))


@pytest.mark.parametrize("target, content", [
    pytest.param("model", None, id="model-is-a-directory"),
    pytest.param("model", b"\xff\xfe", id="model-not-utf8"),
    pytest.param("model", b"{not json", id="model-not-json"),
    pytest.param("model", _DEEP_MODEL, id="model-3000-levels"),
    pytest.param("model", _STUMP.replace(b'"f":0', b'"f":true'), id="model-boolean-feature"),
    pytest.param("model", _STUMP.replace(b'"t":1.0', b'"t":true'), id="model-boolean-threshold"),
    pytest.param("model", _STUMP.replace(b'"v":0.5', b'"v":false'), id="model-boolean-leaf"),
    pytest.param("model", _STUMP.replace(b'"n_trees":1', b'"n_trees":7'), id="model-tree-count-mismatch"),
    pytest.param("model", re.sub(rb'"hyperparams":\{[^}]*\}', b'"hyperparams":"ab"', _STUMP),
                 id="model-hyperparams-a-string"),
    pytest.param("model", _STUMP.replace(b'"n_trees":1', b'"n_trees":true'), id="model-boolean-tree-count"),
    pytest.param("model", _STUMP.replace(b'"max_depth":12', b'"max_depth":1.5'),
                 id="model-fractional-depth"),
    pytest.param("model", _STUMP.replace(b'"bootstrap":true', b'"bootstrap":7'), id="model-bootstrap-7"),
    pytest.param("model", b" " + _STUMP.replace(b'"bootstrap":true', b'"bootstrap":7'),
                 id="model-bootstrap-7-not-canonical"),
    pytest.param("config", b"\xff\xfe", id="config-not-utf8"),
    pytest.param("config", b"[" * 3000 + b"]" * 3000, id="config-3000-levels"),
    pytest.param("config", b'{"bitrates_mbps": ["x"]}', id="config-bitrate-not-a-number"),
    pytest.param("config", b'{"kappa": 1e999}', id="config-infinite-kappa"),
    pytest.param("config", b'{"v_t": NaN}', id="config-nan-cap"),
    pytest.param("config", b'{"bitrates_mbps": [1.0, 1e999]}', id="config-infinite-bitrate"),
    pytest.param("config", b'{"resolutions": [360, 1e999]}', id="config-infinite-resolution"),
    pytest.param("config", b'{"tau_l": null}', id="config-tau-null"),
    pytest.param("config", b'{"seed": 1.5}', id="config-fractional-seed"),
    pytest.param("config", b'{"block_size": 32.5}', id="config-fractional-block-size"),
    pytest.param("config", b'{"n_trees": 1e999}', id="config-infinite-tree-count"),
    pytest.param("config", b'{"resolutions": [360.5, 720]}', id="config-fractional-resolution"),
    pytest.param("config", b'{"seed": true}', id="config-boolean-seed"),
    pytest.param("config", b'{"v_j": true}', id="config-boolean-step"),
    pytest.param("config", b'{"kappa": true}', id="config-boolean-kappa"),
    pytest.param("config", b'{"segment_duration_s": true}', id="config-boolean-duration"),
    pytest.param("config", b'{"tau_l": true}', id="config-boolean-tau"),
    pytest.param("config", b'{"bitrates_mbps": [true, 2.0]}', id="config-boolean-bitrate"),
    pytest.param("config", b'{"bitrates_mbps": ["0.5", "1.5"]}', id="config-bitrate-strings"),
    pytest.param("config", b'{"tau_l": "2.0"}', id="config-tau-string"),
    pytest.param("config", b'{"kappa": null}', id="config-kappa-null"),
    pytest.param("out", b"", id="out-is-a-file"),
])
def test_unusable_input_files_are_data_errors_naming_the_path(tmp_path, capsys, target, content):
    features = tmp_path / "features.csv"
    features.write_text("segment_id,E_Y,h,L_Y\nseg,1.0,0.5,100.0\n")
    models = _write_models(tmp_path / "models")
    path = {
        "model": models / "model_time_none.json",
        "config": tmp_path / "config.json",
        "out": tmp_path / "out",
    }[target]
    if target == "model":
        path.unlink()
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    argv = ["ladder", str(features), "--models", str(models), "--out", str(tmp_path / "out")]
    if target == "config":
        argv += ["--config", str(path)]
    assert run(*argv) == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("prefix", [b"", b" "], ids=["canonical", "not-canonical"])
def test_ladder_names_a_model_whose_leaves_overflow_and_nothing_else(tmp_path, capsys, prefix):
    features = tmp_path / "features.csv"
    features.write_text("segment_id,E_Y,h,L_Y\nseg,9.0,0.5,100.0\n")  # E_Y > 5: the huge leaves
    models = _write_models(tmp_path / "models")
    path = models / "model_time_none.json"
    path.write_bytes(prefix + _OVERFLOWING)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("ladder", str(features), "--models", str(models), "--out", str(tmp_path / "out")) == 2
    assert caught == []
    assert capsys.readouterr().err == f"error: {path}: leaf values add past the float64 maximum\n"
    assert list((tmp_path / "out").iterdir()) == []  # no manifest


def test_python_dash_m_runs_the_cli():
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    result = subprocess.run([sys.executable, "-m", "ladderforge", "--help"], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: ladderforge")


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["-h", "ladder"], ["nonsense"], ["nonsense", "--help"], ["--bogus", "train"],
    *([command, "--help"] for command in cli._COMMANDS),
    *([command] for command in cli._COMMANDS),
    ["analyze", "synth:noise:8x8x1@30", "--raw-width", "x"], ["train", "t.csv", "--holdout"],
    ["ladder", "f.csv"], ["ladder", "f.csv", "--models", "m", "--tau-l", "soon"],
    ["evaluate", "a.csv"], ["evaluate", "a.csv", "b.csv", "--vsr", "bicubic"],
    ["evaluate", "a.csv", "b.csv", "--n-trees", "many"],
])
def test_the_parser_of_one_command_prints_what_the_full_parser_prints(argv, capsys, monkeypatch):
    def parsed(parser):
        with pytest.raises(SystemExit) as caught:
            parser.parse_args(argv)
        return caught.value.code, capsys.readouterr()

    command = next((arg for arg in argv if not arg.startswith("-")), None)
    narrow = cli.build_parser(command if command in cli._COMMANDS else None)
    code, printed = parsed(narrow)
    assert (code, printed) == parsed(cli.build_parser())
    assert code in (0, cli.EXIT_USAGE)
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command) or narrow)
    assert cli.main(argv) == code and capsys.readouterr() == printed
    assert built == [command if command in cli._COMMANDS else None]
