"""Hand-checkable cases for the benchmark's oracles.

Run with ``python3 -m pytest perfbench/test_oracles.py`` or directly with
``python3 perfbench/test_oracles.py``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import oracles  # noqa: E402


def _dct_definition(x: np.ndarray) -> np.ndarray:
    n = x.size
    out = np.array([sum(x[j] * math.cos(math.pi * (2 * j + 1) * k / (2 * n)) for j in range(n))
                    for k in range(n)])
    return out * np.array([math.sqrt(1 / n)] + [math.sqrt(2 / n)] * (n - 1))


def test_dct_small_cases():
    # [1, 3]: X0 = 4/sqrt(2), X1 = (1 - 3) * cos(pi/4) = -sqrt(2).
    assert np.allclose(oracles.dct2_fft(np.array([1.0, 3.0])), [2 * math.sqrt(2), -math.sqrt(2)])
    assert np.allclose(oracles.dct2_fft(np.ones(4)), [2.0, 0.0, 0.0, 0.0])
    x = np.random.default_rng(0).uniform(0, 255, 8)
    assert np.allclose(oracles.dct2_fft(x), _dct_definition(x))


def test_block_energy_of_an_impulse():
    # 2x2 block [[4, 0], [0, 0]]: every coefficient is 2; AC weights are
    # e, e (i*j = 0) and exp(15/16) (i*j = 1).
    want = 4 * math.e + 2 * math.exp(15 / 16)
    impulse = np.array([[4.0, 0.0], [0.0, 0.0]])
    assert math.isclose(oracles.block_energies(impulse, 2)[0], want, rel_tol=1e-12)
    # A 1x1 plane is zero-padded to the same block.
    assert math.isclose(oracles.block_energies(np.array([[4.0]]), 2)[0], want, rel_tol=1e-12)
    assert abs(oracles.block_energies(np.full((32, 32), 77.0))[0]) < 1e-9


def test_segment_features_of_repeated_frames():
    frame = np.arange(64 * 64, dtype=np.float64).reshape(64, 64) % 251
    e, h = oracles.segment_features([frame, frame, frame])
    assert e > 0 and h == 0.0


def _model(trees, n_trees=2, max_depth=1, kind="quality"):
    return json.dumps({"version": 1, "target_kind": kind, "vsr_tag": "none",
                       "hyperparams": {"n_trees": n_trees, "max_depth": max_depth}, "trees": trees})


def test_forest_walker():
    stump = {"f": 3, "t": 9.5, "l": {"v": 10.0}, "r": {"v": 20.0}}
    forest = oracles.Forest(_model([stump, {"v": 30.0}]))
    assert forest.nodes == 4
    x = np.array([oracles.model_row(1, 1, 1, 360, 1.0), oracles.model_row(1, 1, 1, 1080, 1.0)])
    assert forest.predict(x).tolist() == [20.0, 25.0]  # log2 360 < 9.5 < log2 1080
    time_model = oracles.Forest(_model([{"v": -3.0}, {"v": 1.0}], kind="time"))
    assert time_model.predict(x).tolist() == [0.0, 0.0]  # clamped at zero
    for bad in (_model([stump, stump], max_depth=0),  # deeper than max_depth
                _model([stump]),  # fewer trees than n_trees
                _model([{"f": 5, "t": 0.0, "l": {"v": 1}, "r": {"v": 2}}, {"v": 1}]),
                _model([{"v": 1, "x": 2}, {"v": 1}])):
        try:
            oracles.Forest(bad)
        except oracles.WireFormatError:
            continue
        raise AssertionError(f"accepted {bad}")


def test_select():
    q = {(360, 1.0): 50.0, (720, 1.0): 60.0}
    t = {(360, 1.0): 1.0, (720, 1.0): 3.0}
    assert oracles.select(q, t, (360, 720), 1.0, 2.0) == (360, False)
    assert oracles.select(q, t, (360, 720), 1.0, 4.0) == (720, False)
    assert oracles.select(q, t, (360, 720), 1.0, 0.5) == (360, True)
    tie = {(360, 1.0): 60.0, (720, 1.0): 60.0}
    assert oracles.select(tie, t, (360, 720), 1.0, 4.0) == (360, False)
    slow = {(360, 1.0): 5.0, (720, 1.0): 5.0}
    assert oracles.select(q, slow, (360, 720), 1.0, 1.0) == (360, True)


def test_prune():
    assert oracles.prune([40.0, 45.0, 52.0, 60.0, 95.0], 6.0, 94.0) == [0, 2, 3, 4]
    assert oracles.prune([95.0, 99.0], 2.0, 94.0) == [0]
    assert oracles.prune([40.0, 41.0, 42.0], 6.0, 94.0) == [0]
    assert oracles.prune([40.0, 50.0, 96.0, 99.0], 2.0, 96.0) == [0, 1, 2]


def test_bd():
    base = [(0.5, 34.0), (1.2, 38.5), (3.0, 42.0), (7.5, 45.0), (15.0, 46.5)]
    assert abs(oracles.bd_rate(base, base)) < 1e-12
    assert abs(oracles.bd_quality(base, base)) < 1e-12
    assert math.isclose(oracles.bd_rate(base, [(2 * r, q) for r, q in base]), 100.0, rel_tol=1e-9)
    assert math.isclose(oracles.bd_quality(base, [(r, q + 1.0) for r, q in base]), 1.0,
                        rel_tol=1e-9)


if __name__ == "__main__":
    tests = [(name, f) for name, f in sorted(globals().items()) if name.startswith("test_")]
    for name, test in tests:
        test()
        print(f"ok {name}")
