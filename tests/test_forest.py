import json
import math

import numpy as np
import pytest

from ladderforge.complexity import SegmentFeatures
from ladderforge.forest import (
    CorruptModel,
    EmptyDataset,
    ForestModel,
    Hyperparams,
    InvalidHyperparams,
    InvalidRecord,
    MixedTargets,
    SchemaError,
    TrainingRecord,
    VersionMismatch,
    deserialize_model,
    evaluate,
    feature_vector,
    fit,
    load_training_csv,
    predict,
    serialize_model,
)


def _record(e=1.0, h=0.5, l=128.0, r=1080, b=2.4, target=50.0, kind="quality", vsr="none"):
    return TrainingRecord(e, h, l, r, b, target, kind, vsr)


def _random_records(rng, n, kind="quality", target_fn=None):
    records = []
    for _ in range(n):
        e = rng.uniform(0, 5)
        h = rng.uniform(0, 3)
        l = rng.uniform(20, 230)
        r = int(rng.choice([360, 720, 1080, 2160]))
        b = float(rng.uniform(0.145, 16.8))
        if target_fn is None:
            target = rng.uniform(1, 99)
        else:
            target = target_fn(e, h, l, r, b)
        records.append(_record(e, h, l, r, b, target, kind))
    return records


def test_feature_vector_applies_log2_at_model_boundary():
    vec = feature_vector(SegmentFeatures(1.5, 0.25, 100.0), 1080, 4.0)
    assert vec.tolist() == [1.5, 0.25, 100.0, math.log2(1080), 2.0]
    with pytest.raises(InvalidRecord):
        feature_vector(SegmentFeatures(1.0, 0.0, 1.0), 0, 4.0)


def test_constant_target_predicts_constant_exactly():
    rng = np.random.default_rng(0)
    records = _random_records(rng, 30, target_fn=lambda *a: 42.0)
    model = fit(records, Hyperparams(n_trees=5, max_depth=4), seed=3)
    for rec in records[:10]:
        x = (rec.texture_energy, rec.temporal_gradient, rec.brightness,
             math.log2(rec.resolution), math.log2(rec.bitrate))
        assert predict(model, x) == 42.0


def test_single_stump_separates_two_clusters():
    # Two clusters differ only in texture energy; every other feature is
    # constant, so only that feature has candidate thresholds.  The best
    # (indeed the only variance-reducing) split is the midpoint 3.0.
    records = [_record(e=1.0 + 0.0 * i, target=10.0) for i in range(5)] + [
        _record(e=5.0, target=20.0) for _ in range(5)
    ]
    hp = Hyperparams(n_trees=1, max_depth=1, min_samples_leaf=1,
                     features_per_split=5, bootstrap=False)
    model = fit(records, hp, seed=0)
    (tree,) = model.trees
    assert tree["f"] == 0
    assert tree["t"] == 3.0
    assert tree["l"] == {"v": 10.0}
    assert tree["r"] == {"v": 20.0}


def test_training_is_deterministic_for_fixed_seed():
    rng = np.random.default_rng(1)
    records = _random_records(rng, 60)
    hp = Hyperparams(n_trees=8, max_depth=6)
    blob_a = serialize_model(fit(records, hp, seed=99))
    blob_b = serialize_model(fit(records, hp, seed=99))
    assert blob_a == blob_b
    blob_c = serialize_model(fit(records, hp, seed=100))
    assert blob_a != blob_c


def test_single_leaf_model_predicts_its_mean():
    model = ForestModel(({"v": 42.0},), Hyperparams(n_trees=1), 0, "quality", "none")
    assert predict(model, (0, 0, 0, 0, 0)) == 42.0
    assert predict(model, (9, 9, 9, 9, 9)) == 42.0


def test_forest_prediction_is_mean_of_trees():
    model = ForestModel(({"v": 10.0}, {"v": 20.0}), Hyperparams(n_trees=2), 0, "quality", "none")
    assert predict(model, (0, 0, 0, 0, 0)) == 15.0


def test_prediction_clamps_by_target_kind():
    quality = ForestModel(({"v": 120.0},), Hyperparams(n_trees=1), 0, "quality", "none")
    assert predict(quality, (0,) * 5) == 100.0
    time = ForestModel(({"v": -3.0},), Hyperparams(n_trees=1), 0, "time", "none")
    assert predict(time, (0,) * 5) == 0.0


def test_synthetic_rate_quality_function_learned():
    def target(e, h, l, r, b):
        return 100.0 - 40.0 / math.log2(1000.0 * b)

    rng = np.random.default_rng(5)
    train = _random_records(rng, 400, target_fn=target)
    test = _random_records(rng, 100, target_fn=target)
    model = fit(train, Hyperparams(n_trees=30, max_depth=10), seed=11)
    stats = evaluate(model, test)
    assert stats.mae < 2.0


def test_prediction_bounded_by_training_targets():
    rng = np.random.default_rng(8)
    records = _random_records(rng, 80)
    targets = [r.target for r in records]
    model = fit(records, Hyperparams(n_trees=12, max_depth=8), seed=2)
    probes = _random_records(rng, 50)
    for rec in probes:
        x = (rec.texture_energy, rec.temporal_gradient, rec.brightness,
             math.log2(rec.resolution), math.log2(rec.bitrate))
        assert min(targets) <= predict(model, x) <= max(targets)


def test_duplicating_a_pure_leaf_record_changes_nothing():
    # Cluster targets are constant, so each cluster is a pure leaf and the
    # candidate thresholds (midpoints of unique values) are unchanged by a
    # duplicate record.
    base = [_record(e=float(e), target=10.0 if e < 3 else 30.0) for e in (1, 2, 4, 5)]
    hp = Hyperparams(n_trees=1, max_depth=4, min_samples_leaf=1,
                     features_per_split=5, bootstrap=False)
    before = fit(base, hp, seed=0)
    after = fit(base + [base[0]], hp, seed=0)
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = (rng.uniform(0, 6), 0.5, 128.0, math.log2(1080), math.log2(2.4))
        assert predict(before, x) == predict(after, x)


def test_training_mae_non_increasing_in_depth_without_bootstrap():
    rng = np.random.default_rng(13)
    records = _random_records(rng, 120)
    maes = []
    for depth in (1, 2, 3, 5, 8, 12):
        hp = Hyperparams(n_trees=1, max_depth=depth, min_samples_leaf=1,
                         features_per_split=5, bootstrap=False)
        model = fit(records, hp, seed=0)
        maes.append(evaluate(model, records).mae)
    assert all(a >= b - 1e-12 for a, b in zip(maes, maes[1:]))
    assert maes[-1] < maes[0]


def test_quality_targets_clamped_and_time_targets_positive():
    rec = _record(target=150.0)
    assert rec.target == 100.0
    rec = _record(target=-5.0)
    assert rec.target == 0.0
    with pytest.raises(InvalidRecord):
        _record(target=0.0, kind="time")
    with pytest.raises(InvalidRecord):
        _record(b=0.0)


def test_fit_rejects_bad_inputs():
    with pytest.raises(EmptyDataset):
        fit([_record()], Hyperparams(n_trees=1), seed=0)
    mixed = [_record(target=10), _record(target=20, kind="time")]
    with pytest.raises(MixedTargets):
        fit(mixed, Hyperparams(n_trees=1), seed=0)
    mixed_vsr = [_record(), _record(vsr="fsrcnn")]
    with pytest.raises(MixedTargets):
        fit(mixed_vsr, Hyperparams(n_trees=1), seed=0)
    with pytest.raises(InvalidHyperparams):
        Hyperparams(n_trees=0)
    with pytest.raises(InvalidHyperparams):
        Hyperparams(features_per_split=6)
    with pytest.raises(InvalidHyperparams):
        Hyperparams(max_depth=0)


def test_evaluate_exact_values():
    # One split on log2(bitrate): predictions are 1.0 left, 3.0 right.
    tree = {"f": 4, "t": 0.0, "l": {"v": 1.0}, "r": {"v": 3.0}}
    model = ForestModel((tree,), Hyperparams(n_trees=1), 0, "quality", "none")
    records = [_record(b=0.5, target=0.0), _record(b=2.0, target=0.0)]
    stats = evaluate(model, records)
    assert stats.mae == 2.0
    assert stats.sd == 1.0
    with pytest.raises(EmptyDataset):
        evaluate(model, [])
    with pytest.raises(MixedTargets):
        evaluate(model, [_record(kind="time", target=1.0)])


def test_evaluate_on_pure_leaves_is_zero():
    records = [_record(e=1.0, target=10.0), _record(e=5.0, target=20.0)]
    hp = Hyperparams(n_trees=1, max_depth=2, min_samples_leaf=1,
                     features_per_split=5, bootstrap=False)
    model = fit(records, hp, seed=0)
    stats = evaluate(model, records)
    assert stats.mae == 0.0 and stats.sd == 0.0


def test_serialization_roundtrip_predicts_identically():
    rng = np.random.default_rng(17)
    records = _random_records(rng, 60, kind="time", target_fn=lambda e, h, l, r, b: 0.1 + e * r / 1e5)
    model = fit(records, Hyperparams(n_trees=6, max_depth=6), seed=4)
    clone = deserialize_model(serialize_model(model))
    assert clone.hyperparams == model.hyperparams
    assert clone.seed == model.seed
    for _ in range(1000):
        x = rng.uniform(-1, 12, 5)
        assert predict(model, x) == predict(clone, x)


def test_deserialize_rejects_bad_payloads():
    model = ForestModel(({"v": 1.0},), Hyperparams(n_trees=1), 0, "quality", "none")
    blob = serialize_model(model)
    with pytest.raises(CorruptModel):
        deserialize_model(blob[: len(blob) // 2])
    doc = json.loads(blob)
    doc["version"] = 2
    with pytest.raises(VersionMismatch):
        deserialize_model(json.dumps(doc))
    doc = json.loads(blob)
    del doc["version"]
    with pytest.raises(CorruptModel):
        deserialize_model(json.dumps(doc))
    doc = json.loads(blob)
    doc["trees"] = [{"f": 9, "t": 0.0, "l": {"v": 1.0}, "r": {"v": 2.0}}]
    with pytest.raises(CorruptModel):
        deserialize_model(json.dumps(doc))
    doc = json.loads(blob)
    doc["trees"] = [{"v": 1.0, "extra": 2}]
    with pytest.raises(CorruptModel):
        deserialize_model(json.dumps(doc))
    doc["trees"] = []
    with pytest.raises(CorruptModel, match="nonempty tree list"):
        deserialize_model(json.dumps(doc))
    # fit never splits a node at depth max_depth (12 here): a 13th split is corrupt.
    tree = {"v": 1.0}
    for _ in range(12):
        tree = {"f": 0, "t": 0.0, "l": {"v": 0.0}, "r": tree}
    doc["trees"] = [tree]
    deserialize_model(json.dumps(doc))
    doc["trees"] = [{"f": 0, "t": 0.0, "l": {"v": 0.0}, "r": tree}]
    with pytest.raises(CorruptModel, match="deeper than max_depth 12"):
        deserialize_model(json.dumps(doc))


def _walk_one_row(model, x):
    """Reference predictor: each tree walked as nested dicts, outputs summed in tree order."""
    total = 0.0
    for node in model.trees:
        while "v" not in node:
            node = node["l"] if x[node["f"]] <= node["t"] else node["r"]
        total += node["v"]
    upper = 100.0 if model.target_kind == "quality" else math.inf
    return min(upper, max(0.0, total / len(model.trees)))


def _splits(node):
    stack = [node]
    while stack:
        node = stack.pop()
        if "v" not in node:
            yield node["f"], node["t"]
            stack += [node["l"], node["r"]]


@pytest.mark.parametrize("kind", ["quality", "time"])
def test_batched_predict_equals_per_row_bit_for_bit(kind):
    rng = np.random.default_rng(21)
    scale = 1.0 if kind == "quality" else 0.01
    records = _random_records(rng, 150, kind=kind,
                              target_fn=lambda e, h, l, r, b: scale * (5 + e * 10 + h * r / 100))
    model = fit(records, Hyperparams(n_trees=7, max_depth=8), seed=9)
    rows = [rng.uniform(-1, 12, 5) for _ in range(100)]
    # x == t goes left, so rows exactly on a split's threshold probe both sides.
    for tree in model.trees:
        for f, t in _splits(tree):
            row = rng.uniform(-1, 12, 5)
            row[f] = t
            rows.append(row)
    rows += [np.full(5, 1e300), np.full(5, -1e300), np.zeros(5)]
    x = np.array(rows)
    batch = predict(model, x)
    assert batch.shape == (len(rows),)
    for i, row in enumerate(x):
        one = predict(model, row)
        assert type(one) is float
        assert one == batch[i] == _walk_one_row(model, row)
    assert predict(model, x[:0]).shape == (0,)
    with pytest.raises(InvalidRecord):
        predict(model, np.zeros((2, 4)))


@pytest.mark.parametrize("tree, message", [
    ([1.0], r"trees\[0\]: node must be an object"),
    ({"v": True}, r"trees\[0\]: leaf value must be a finite number"),
    ({"v": math.inf}, r"trees\[0\]: leaf value must be a finite number"),
    ({"f": 0, "t": 1.0, "l": {"v": 1.0}}, r"trees\[0\]: node keys must be exactly"),
    ({"f": True, "t": 1.0, "l": {"v": 1.0}, "r": {"v": 2.0}}, r"trees\[0\]: feature index"),
    ({"f": 5, "t": 1.0, "l": {"v": 1.0}, "r": {"v": 2.0}}, r"trees\[0\]: feature index"),
    ({"f": 0, "t": False, "l": {"v": 1.0}, "r": {"v": 2.0}}, r"trees\[0\]: threshold must be"),
    ({"f": 0, "t": 10**400, "l": {"v": 1.0}, "r": {"v": 2.0}}, r"trees\[0\]: int too large"),
    ({"f": 0, "t": 1.0, "l": {"v": 1.0}, "r": {"f": 1, "t": 0.5, "l": {"v": 1}, "r": {"v": "x"}}},
     r"trees\[0\]\.r\.r: leaf value"),
    ({"f": 0, "t": 1.0, "l": {"f": 1, "t": 0.5, "l": None, "r": {"v": 1}}, "r": {"v": 2.0}},
     r"trees\[0\]\.l\.l: node must be an object"),
], ids=["list-node", "bool-leaf", "inf-leaf", "missing-key", "bool-feature", "feature-5",
        "bool-threshold", "huge-threshold", "nested-bad-leaf", "nested-null"])
def test_constructing_a_model_checks_its_trees(tree, message):
    with pytest.raises(CorruptModel, match=message):
        ForestModel((tree,), Hyperparams(n_trees=1), 0, "quality", "none")


def test_too_deep_tree_error_names_its_full_path():
    deep = {"v": 1.0}
    for _ in range(4):
        deep = {"f": 2, "t": 0.5, "l": {"f": 1, "t": 0.0, "l": {"v": 0.0}, "r": {"v": 3.0}}, "r": deep}
    trees = ({"v": 1.0}, {"f": 0, "t": 0.0, "l": {"v": 0.0}, "r": deep})
    with pytest.raises(CorruptModel) as excinfo:
        ForestModel(trees, Hyperparams(n_trees=2, max_depth=4), 0, "time", "none")
    assert str(excinfo.value) == "trees[1].r.r.r.l: tree is deeper than max_depth 4"
    model = ForestModel(trees, Hyperparams(n_trees=2, max_depth=9), 0, "time", "none")
    assert predict(model, (1.0, 1.0, 0.0, 0.0, 0.0)) == 2.0


def test_deserialize_ignores_unknown_toplevel_keys():
    model = ForestModel(({"v": 7.0},), Hyperparams(n_trees=1), 0, "quality", "none")
    doc = json.loads(serialize_model(model))
    doc["config"] = {"anything": True}
    clone = deserialize_model(json.dumps(doc))
    assert predict(clone, (0,) * 5) == 7.0


TRAIN_CSV = """segment_id,E_Y,h,L_Y,resolution,bitrate_mbps,vsr_tag,target_kind,target
s0,1.5,0.3,120.0,1080,2.4,none,quality,80.5
s0,1.5,0.3,120.0,360,0.145,none,quality,41.0
s1,0.2,0.0,40.0,2160,16.8,fsrcnn,time,3.25
"""


def test_load_training_csv():
    records = load_training_csv(TRAIN_CSV.splitlines(True))
    assert len(records) == 3
    assert records[0].resolution == 1080 and records[0].target == 80.5
    assert records[2].target_kind == "time" and records[2].vsr_tag == "fsrcnn"


def test_load_training_csv_reports_line_numbers():
    bad = TRAIN_CSV + "s2,xx,0.0,40.0,2160,16.8,none,quality,3.25\n"
    with pytest.raises(SchemaError, match="line 5"):
        load_training_csv(bad.splitlines(True))
    with pytest.raises(SchemaError, match="header"):
        load_training_csv(["a,b\n", "1,2\n"])
    with pytest.raises(SchemaError, match="line 3"):
        load_training_csv(TRAIN_CSV.splitlines(True), resolutions=(1080, 2160))
