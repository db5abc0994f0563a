import importlib.util
import json
import subprocess
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "benchpairs", Path(__file__).resolve().parents[1] / "tools" / "benchpairs.py")
benchpairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(benchpairs)


def test_bootstrap_interval_of_hand_checked_cases():
    # One value: every resample's median is that value.
    assert benchpairs.bootstrap_interval([0.8]) == [0.8, 0.8]
    # Two values: a resample's median is 1, 2 or 3 with odds 1/4, 1/2, 1/4,
    # so far more than 2.5 % of 2,000 resamples land on each end.
    assert benchpairs.bootstrap_interval([1.0, 3.0]) == [1.0, 3.0]
    # One outlier in ten moves a resample's median only when it is drawn at
    # least 5 times, which has odds of 0.16 %, under the 2.5 % in each tail.
    assert benchpairs.bootstrap_interval([0.5] * 9 + [2.0]) == [0.5, 0.5]


def test_collate_reports_the_per_seed_ratios():
    def entry(side, seed, value):
        result = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"cpu_p50_s": {"value": value, "unit": "s"}}}
        return {"side": side, "workload": "w", "seed": seed, "trace": 0, "result": result}

    entries = [entry("parent", s, 2.0) for s in (1, 2, 3)]
    entries += [entry("change", 1, 1.0), entry("change", 2, 1.0), entry("change", 3, 3.0)]
    metric = benchpairs.collate_runs(entries)["w"]["metrics"]["cpu_p50_s"]
    # Ratios 0.5, 0.5, 1.5: a resample of three has median 1.5 when it draws
    # 1.5 at least twice, with odds 7/27, so each end is reached often.
    assert metric["change_ratio_median"] == 0.5
    assert metric["change_ratio_95"] == [0.5, 1.5]
    assert metric["change_wins"] == 2


def _collated(parent, change, control=None):
    def entry(side, seed, value):
        result = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"call_p50_s": {"value": value, "unit": "s"}}}
        return {"side": side, "workload": "w", "seed": seed, "trace": 0, "result": result}

    entries = [entry("parent", s, v) for s, v in enumerate(parent)]
    entries += [entry("change", s, v) for s, v in enumerate(change)]
    entries += [entry("control", s, v) for s, v in enumerate(control or [])]
    return benchpairs.collate_runs(entries)["w"]["metrics"]["call_p50_s"]


def test_claim_met_of_hand_checked_cases():
    # Parent 1.0 to 2.125 in steps of 1/8: median 1.5625, inclusive quartiles
    # 1.28125 and 1.84375, so the change's median must be below 1.0.
    parent = [1.0 + i / 8 for i in range(10)]
    half = [p / 2 for p in parent]  # every ratio 0.5: median 0.78125, interval [0.5, 0.5]
    assert _collated(parent, half)["claim_met"]
    # The control's ratios, five 63/64 and five 65/64, have a resampled median
    # of 63/64, 1 or 65/64, each often enough to hold the ends.
    steady = [p * (63 / 64 if i % 2 else 65 / 64) for i, p in enumerate(parent)]
    metric = _collated(parent, half, steady)
    assert metric["control_ratio_95"] == [63 / 64, 65 / 64] and metric["claim_met"]
    # A control that drifts as far as the change does: its interval excludes 1.
    assert not _collated(parent, half, half)["claim_met"]
    # 9 wins of 10 still claim; 8 do not.
    assert _collated(parent, half[:9] + [3.0])["claim_met"]
    assert not _collated(parent, half[:8] + [3.0, 3.0])["claim_met"]
    # Ten wins, every ratio below 1, but a gap of 0.375 under the quartile distance of 0.5625.
    closer = [p - 0.375 for p in parent]
    metric = _collated(parent, closer)
    assert metric["change_wins"] == 10 and metric["change_ratio_95"][1] < 1
    assert not metric["claim_met"]
    # Nine pairs, all won by a wide margin, are too few.
    assert not _collated(parent[:9], half[:9])["claim_met"]


def test_run_interleaves_workloads_seed_by_seed(tmp_path, monkeypatch):
    calls = []

    def fake_run(argv, cwd, capture_output, text):
        calls.append((cwd.name, argv[argv.index("--workload") + 1], int(argv[argv.index("--seed") + 1])))
        result = {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}
        return subprocess.CompletedProcess(argv, 0, "progress\n" + json.dumps(result) + "\n", "")

    monkeypatch.setattr(benchpairs.subprocess, "run", fake_run)
    log = tmp_path / "runs.jsonl"
    args = benchpairs.argparse.Namespace(
        parent=tmp_path / "parent", change=tmp_path / "change", control=tmp_path / "control",
        log=log, seeds=[4, 5], workload=["catalog-ladder", "live-segment"], seconds=1.0, trace=0)
    benchpairs.run(args)
    # Seed 4 rotates the sides by one, seed 5 by two; each seed runs both workloads.
    assert calls == [
        ("change", "catalog-ladder", 4), ("control", "catalog-ladder", 4), ("parent", "catalog-ladder", 4),
        ("change", "live-segment", 4), ("control", "live-segment", 4), ("parent", "live-segment", 4),
        ("control", "catalog-ladder", 5), ("parent", "catalog-ladder", 5), ("change", "catalog-ladder", 5),
        ("control", "live-segment", 5), ("parent", "live-segment", 5), ("change", "live-segment", 5),
    ]
    entries = [json.loads(line) for line in log.read_text().splitlines()]
    assert [(e["side"], e["workload"], e["seed"]) for e in entries] == calls
    assert [e["position"] for e in entries] == [0, 1, 2] * 4


def test_tree_cpu_logs_the_train_call_beside_its_whole_process(tmp_path, monkeypatch):
    repo = Path(__file__).resolve().parents[1]
    real_run = subprocess.run

    def run_with_small_inputs(argv, **kwargs):
        if argv[1] != "perfbench/inputs.py":
            return real_run(argv, **kwargs)
        out = Path(argv[argv.index("--out") + 1])
        out.mkdir(parents=True)
        rows = [f"s{i},{i % 7}.5,0.1,120.0,{720 + 360 * (i % 2)},{1 + i % 3}.0,{vsr},{kind},{50 + i}.0\n"
                for i in range(30) for vsr in ("none", "fsrcnn") for kind in ("quality", "time")]
        (out / "train.csv").write_text(
            "segment_id,E_Y,h,L_Y,resolution,bitrate_mbps,vsr_tag,target_kind,target\n" + "".join(rows))
        return subprocess.CompletedProcess(argv, 0)

    monkeypatch.setattr(benchpairs.subprocess, "run", run_with_small_inputs)
    log = tmp_path / "tree.jsonl"
    benchpairs.tree_cpu(benchpairs.argparse.Namespace(
        parent=repo, change=repo, seeds=[7], log=log, scratch=tmp_path))
    entries = [json.loads(line) for line in log.read_text().splitlines()]
    assert [e["side"] for e in entries] == ["parent", "change"]
    for entry in entries:
        figures = {name: m["value"] for name, m in entry["result"]["metrics"].items()}
        assert sorted(figures) == ["call_cpu_s", "call_wall_s", "tree_cpu_s", "wall_s"]
        # The call is timed inside the process, so start-up falls outside it.
        assert 0 < figures["call_wall_s"] < figures["wall_s"]
        assert 0 < figures["call_cpu_s"] <= figures["tree_cpu_s"]
        assert entry["result"]["correct"]
    assert len(list((tmp_path / "train-forest-seed7" / "change").glob("model_*.json"))) == 4
