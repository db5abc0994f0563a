import importlib.util
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
