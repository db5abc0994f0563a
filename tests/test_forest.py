import json
import math
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderforge import forest
from ladderforge.complexity import SegmentFeatures
from ladderforge.forest import (
    PREDICT_BLOCK_ROWS,
    CorruptModel,
    EmptyDataset,
    ForestModel,
    Hyperparams,
    InvalidHyperparams,
    InvalidRecord,
    MixedTargets,
    SchemaError,
    TARGET_KINDS,
    VSR_TAGS,
    TrainingRecord,
    TrainingSet,
    VersionMismatch,
    deserialize_model,
    evaluate,
    feature_rows,
    feature_vector,
    fit,
    load_training_csv,
    predict,
    serialize_model,
)
from ladderforge.rng import SplitMix64


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


_CONTENT = st.builds(
    SegmentFeatures,
    st.floats(0.0, 1e6), st.floats(0.0, 1e6), st.floats(0.0, 255.0),
)
_POSITIVE = st.one_of(st.integers(1, 1 << 62), st.floats(min_value=5e-324, max_value=1e300))


@settings(max_examples=150, deadline=None)
@given(
    features=st.lists(_CONTENT, max_size=4),
    resolutions=st.lists(_POSITIVE, min_size=1, max_size=4),
    bitrates=st.lists(_POSITIVE, min_size=1, max_size=4),
)
def test_feature_rows_are_feature_vector_and_the_layout_bit_for_bit(features, resolutions, bitrates):
    rows = feature_rows(features, resolutions, bitrates)
    cells = [(f, r, b) for f in features for r in resolutions for b in bitrates]
    assert rows.shape == (len(cells), 5)
    # The layout written out, with math.log2 as the reference logs.
    layout = np.array([[f.texture_energy, f.temporal_gradient, f.brightness,
                        math.log2(r), math.log2(b)] for f, r, b in cells]).reshape(-1, 5)
    assert rows.tobytes() == layout.tobytes()
    for row, (f, r, b) in zip(rows, cells):
        assert row.tobytes() == feature_vector(f, r, b).tobytes()


def test_feature_rows_name_the_first_cell_with_a_non_positive_axis_value():
    features = [SegmentFeatures(1.0, 0.0, 1.0)]
    with pytest.raises(InvalidRecord, match=r"got 720, 0\.0$"):
        feature_rows(features, (720, 360), (0.0, -1.0))
    with pytest.raises(InvalidRecord, match=r"got -360, 1\.0$"):
        feature_rows(features, (720, -360), (1.0, 2.0))
    with pytest.raises(InvalidRecord, match=r"got 0, 4\.0$"):
        feature_vector(features[0], 0, 4.0)


@pytest.mark.parametrize("resolutions, bitrates, first", [
    ((720, math.nan), (1.0, 2.0), "nan, 1.0"),
    ((720, 1080), (2.0, math.inf), "720, inf"),
    ((math.inf,), (1.0,), "inf, 1.0"),
    ((1080,), (math.nan,), "1080, nan"),
])
def test_feature_rows_reject_a_nan_or_infinite_axis_value(resolutions, bitrates, first):
    with pytest.raises(InvalidRecord, match=rf"^resolution and bitrate must be finite and positive, got {first}$"):
        feature_rows([SegmentFeatures(1.0, 0.0, 1.0)], resolutions, bitrates)
    with pytest.raises(InvalidRecord, match="must be finite and positive"):
        feature_vector(SegmentFeatures(1.0, 0.0, 1.0), resolutions[-1], bitrates[-1])


@pytest.mark.parametrize("field, value", [
    ("e", math.nan), ("h", math.inf), ("l", -math.inf),
    ("r", math.nan), ("r", math.inf), ("r", 0), ("b", math.nan), ("b", math.inf), ("b", -1.0),
])
def test_records_reject_non_finite_features_and_axis_values(field, value):
    name = {"e": "texture_energy", "h": "temporal_gradient", "l": "brightness",
            "r": "resolution", "b": "bitrate"}[field]
    with pytest.raises(InvalidRecord, match=f"^{name} must be finite"):
        _record(**{field: value})


def test_fit_refuses_records_with_nan_features():
    """20 records whose E_Y is NaN in every other row and whose bitrate is
    NaN in every third: no record is made, so no model is fitted on them."""
    with pytest.raises(InvalidRecord, match="must be finite"):
        fit([_record(e=math.nan if i % 2 else 1.0 + i, b=math.nan if i % 3 == 0 else 2.4,
                     target=40.0 + i) for i in range(20)], Hyperparams(n_trees=2))


def test_training_rows_are_feature_vector_bit_for_bit():
    records = _random_records(np.random.default_rng(8), 40)
    x = TrainingSet.from_records(records).x
    assert x.tobytes() == np.array(
        [feature_vector(rec, rec.resolution, rec.bitrate) for rec in records]).tobytes()


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
    model = ForestModel.from_trees(({"v": 42.0},), Hyperparams(n_trees=1), 0, "quality", "none")
    assert predict(model, (0, 0, 0, 0, 0)) == 42.0
    assert predict(model, (9, 9, 9, 9, 9)) == 42.0


def test_forest_prediction_is_mean_of_trees():
    model = ForestModel.from_trees(({"v": 10.0}, {"v": 20.0}), Hyperparams(n_trees=2), 0, "quality", "none")
    assert predict(model, (0, 0, 0, 0, 0)) == 15.0


def test_prediction_clamps_by_target_kind():
    quality = ForestModel.from_trees(({"v": 120.0},), Hyperparams(n_trees=1), 0, "quality", "none")
    assert predict(quality, (0,) * 5) == 100.0
    time = ForestModel.from_trees(({"v": -3.0},), Hyperparams(n_trees=1), 0, "time", "none")
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


@pytest.mark.parametrize("field, value, message", [
    ("n_trees", True, "n_trees must be an integer, got True"),
    ("max_depth", 1.5, "max_depth must be an integer, got 1.5"),
    ("min_samples_leaf", "2", "min_samples_leaf must be an integer, got '2'"),
    ("features_per_split", np.int64(3), "features_per_split must be an integer, got np.int64(3)"),
    ("bootstrap", 7, "bootstrap must be a boolean, got 7"),
    ("bootstrap", 1, "bootstrap must be a boolean, got 1"),
])
def test_hyperparams_reject_values_of_the_wrong_type(field, value, message):
    with pytest.raises(InvalidHyperparams, match=re.escape(message)):
        Hyperparams(**{field: value})


def test_evaluate_exact_values():
    # One split on log2(bitrate): predictions are 1.0 left, 3.0 right.
    tree = {"f": 4, "t": 0.0, "l": {"v": 1.0}, "r": {"v": 3.0}}
    model = ForestModel.from_trees((tree,), Hyperparams(n_trees=1), 0, "quality", "none")
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
    model = ForestModel.from_trees(({"v": 1.0},), Hyperparams(n_trees=1), 0, "quality", "none")
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
    doc["trees"] = [{"v": 1.0}]
    doc["hyperparams"]["n_trees"] = 7
    with pytest.raises(CorruptModel, match="n_trees is 7 but the model has 1 trees"):
        deserialize_model(json.dumps(doc))
    doc["hyperparams"]["n_trees"] = 1
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


def test_blocked_predict_equals_row_by_row_across_block_edges():
    rng = np.random.default_rng(22)
    records = _random_records(rng, 200, target_fn=lambda e, h, l, r, b: 5 + e * 10 + h * r / 100)
    model = fit(records, Hyperparams(n_trees=6, max_depth=10), seed=4)
    n = 2 * PREDICT_BLOCK_ROWS + 452  # two whole blocks and a part of a third
    x = TrainingSet.from_records(_random_records(rng, n)).x
    one_by_one = np.array([predict(model, row) for row in x])
    assert predict(model, x).tobytes() == one_by_one.tobytes()
    for rows in (PREDICT_BLOCK_ROWS - 1, PREDICT_BLOCK_ROWS, PREDICT_BLOCK_ROWS + 1):
        assert predict(model, x[:rows]).tobytes() == one_by_one[:rows].tobytes()


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
        ForestModel.from_trees((tree,), Hyperparams(n_trees=1), 0, "quality", "none")


def test_too_deep_tree_error_names_its_full_path():
    deep = {"v": 1.0}
    for _ in range(4):
        deep = {"f": 2, "t": 0.5, "l": {"f": 1, "t": 0.0, "l": {"v": 0.0}, "r": {"v": 3.0}}, "r": deep}
    trees = ({"v": 1.0}, {"f": 0, "t": 0.0, "l": {"v": 0.0}, "r": deep})
    with pytest.raises(CorruptModel) as excinfo:
        ForestModel.from_trees(trees, Hyperparams(n_trees=2, max_depth=4), 0, "time", "none")
    assert str(excinfo.value) == "trees[1].r.r.r.l: tree is deeper than max_depth 4"
    model = ForestModel.from_trees(trees, Hyperparams(n_trees=2, max_depth=9), 0, "time", "none")
    assert predict(model, (1.0, 1.0, 0.0, 0.0, 0.0)) == 2.0


def test_deserialize_ignores_unknown_toplevel_keys():
    model = ForestModel.from_trees(({"v": 7.0},), Hyperparams(n_trees=1), 0, "quality", "none")
    doc = json.loads(serialize_model(model))
    doc["config"] = {"anything": True}
    clone = deserialize_model(json.dumps(doc))
    assert predict(clone, (0,) * 5) == 7.0
    # serialize_model writes such keys itself, after the trees, in one pass.
    provenance = {"config": {"tau_l": "inf", "bitrates_mbps": [0.145, 16.8], "v_j": None}}
    doc.update(provenance)
    blob = serialize_model(model, provenance)
    assert blob == json.dumps(doc, separators=(",", ":")).encode()
    assert list(json.loads(blob))[-2:] == ["trees", "config"]
    assert predict(deserialize_model(blob), (0,) * 5) == 7.0


TRAIN_CSV = """segment_id,E_Y,h,L_Y,resolution,bitrate_mbps,vsr_tag,target_kind,target
s0,1.5,0.3,120.0,1080,2.4,none,quality,80.5
s0,1.5,0.3,120.0,360,0.145,none,quality,41.0
s1,0.2,0.0,40.0,2160,16.8,fsrcnn,time,3.25
"""


def test_load_training_csv():
    data = load_training_csv(TRAIN_CSV.splitlines(True))
    assert len(data) == 3
    assert data.x[0, 3] == math.log2(1080) and data.target[0] == 80.5
    assert (data.kind[2], data.tag[2]) == (TARGET_KINDS.index("time"), VSR_TAGS.index("fsrcnn"))


def test_load_training_csv_reports_line_numbers():
    bad = TRAIN_CSV + "s2,xx,0.0,40.0,2160,16.8,none,quality,3.25\n"
    with pytest.raises(SchemaError, match="line 5"):
        load_training_csv(bad.splitlines(True))
    with pytest.raises(SchemaError, match="header"):
        load_training_csv(["a,b\n", "1,2\n"])
    with pytest.raises(SchemaError, match="line 3"):
        load_training_csv(TRAIN_CSV.splitlines(True), resolutions=(1080, 2160))


def test_a_rows_rules_come_before_its_resolution_lookup():
    bad = TRAIN_CSV + "s2,1.0,0.0,40.0,540,2.4,nope,quality,3.25\n"
    with pytest.raises(SchemaError, match=r"^line 5: vsr_tag must be one of \('none', 'fsrcnn'\), got 'nope'$"):
        load_training_csv(bad.splitlines(True), resolutions=(360, 1080, 2160))
    with pytest.raises(SchemaError, match=r"^line 5: resolution 540 not in configured set \[360, 1080, 2160\]$"):
        load_training_csv(bad.replace("nope", "none").splitlines(True), resolutions=(360, 1080, 2160))


def test_a_negative_zero_quality_target_fits_as_zero():
    """max(0.0, -0.0) is 0.0 where np.maximum(0.0, -0.0) is -0.0: a leaf of
    such rows must write "v":0.0, as a leaf of zeros does."""
    hp = Hyperparams(n_trees=2, min_samples_leaf=1, bootstrap=False)

    def model_bytes(zero):
        text = TRAIN_CSV.splitlines(True)[0] + "".join(
            f"s{i},{float(i)},0.3,120.0,1080,2.4,none,quality,{zero if i < 4 else 60.0 + i}\n" for i in range(8))
        data = load_training_csv(text.splitlines(True))
        assert np.signbit(data.target).sum() == 0
        return serialize_model(fit(data, hp, seed=3))

    assert model_bytes("-0.0") == model_bytes("0.0")
    assert b'"v":0.0' in model_bytes("-0.0") and b"-0.0" not in model_bytes("-0.0")
    assert math.copysign(1.0, _record(target=-0.0).target) == 1.0


def test_a_resolution_beyond_int64_trains_with_its_exact_log2():
    huge = 99999999999999999999
    text = TRAIN_CSV.splitlines(True)[0] + "".join(
        f"s{i},{float(i)},0.3,120.0,{huge if i % 2 else 720},2.4,none,quality,{40.0 + i}\n" for i in range(6))
    data = load_training_csv(text.splitlines(True))
    assert data.x[1::2, 3].tolist() == [math.log2(huge)] * 3
    model = fit(data, Hyperparams(n_trees=2), seed=1)
    assert model.target_kind == "quality" and len(model.trees) == 2


def test_fit_refuses_targets_whose_squared_sums_overflow():
    with pytest.raises(InvalidRecord, match="overflow"):
        fit([_record(e=float(i), target=1e200, kind="time") for i in range(4)])
    # n * sum(y * y) is finite here (1.47e308), but a bootstrap that draws the
    # large target twice sums to 1.4e154, whose square overflows.
    records = [_record(e=float(i), target=t, kind="time") for i, t in enumerate((7e153, 1.0, 1.0))]
    with pytest.raises(InvalidRecord, match="overflow"):
        fit(records)
    # Just inside the bound the split search stays finite throughout.
    top = 0.9 * math.sqrt(np.finfo(float).max) / 40
    records = [_record(e=float(i), h=float(i % 3), target=top * (1 + i % 5) / 5, kind="time")
               for i in range(40)]
    with np.errstate(over="raise", invalid="raise"):
        model = fit(records, Hyperparams(n_trees=3, min_samples_leaf=1), seed=2)
    assert all(0 < v <= top for v in predict(model, np.array([feature_vector(r, r.resolution, r.bitrate)
                                                              for r in records])))


_UP = math.nextafter(1.0, math.inf)  # 1 + 2**-52


@pytest.mark.parametrize("low, high, threshold", [
    (_UP, math.nextafter(_UP, math.inf), _UP),  # the midpoint rounds up to the upper value
    (1.0, _UP, 1.0),  # the midpoint ties to the even, lower value
    (1e308, 1.5e308, 1e308),  # the sum overflows to inf
    (-1.5e308, -1e308, -1.5e308),  # the sum overflows to -inf
])
def test_split_threshold_separates_the_values_it_was_scored_on(low, high, threshold):
    records = [_record(e=low, target=10.0), _record(e=high, target=20.0)] * 2
    hp = Hyperparams(n_trees=1, max_depth=1, min_samples_leaf=1,
                     features_per_split=5, bootstrap=False)
    (tree,) = fit(records, hp, seed=0).trees
    assert tree == {"f": 0, "t": threshold, "l": {"v": 10.0}, "r": {"v": 20.0}}


def test_fit_through_a_process_pool_gives_the_same_bytes():
    records = _random_records(np.random.default_rng(3), 80)
    hp = Hyperparams(n_trees=6, max_depth=6)
    serial = fit(records, hp, seed=11)
    # one tree per task, runs of 3 trees, and all the trees in one task
    with ProcessPoolExecutor(2) as pool:
        pooled = [fit(records, hp, seed=11, map=partial(pool.map, chunksize=size))
                  for size in (1, 3, hp.n_trees)]
    compiled = ForestModel.from_trees(serial.trees, hp, 11, serial.target_kind, serial.vsr_tag)
    for model in pooled:
        assert serialize_model(model) == serialize_model(serial)
        # fit's own arrays, laid out bit for bit as _compile lays out the same trees
        assert _flat_bytes(model) == _flat_bytes(serial) == _flat_bytes(compiled)


def _flat_bytes(model):
    return [(a.dtype.str, a.tobytes()) if isinstance(a, np.ndarray) else a for a in model._flat]


# The per-feature recursive builder that fit used before it presorted, kept
# as the reference its models must equal byte for byte.

def _reference_best_split(xv, yv, min_samples_leaf):
    n = xv.size
    order = np.argsort(xv, kind="stable")
    xs = xv[order]
    ys = yv[order]
    cuts = np.nonzero(xs[:-1] < xs[1:])[0]
    if cuts.size:
        left_n = cuts + 1
        keep = (left_n >= min_samples_leaf) & (n - left_n >= min_samples_leaf)
        cuts = cuts[keep]
    if not cuts.size:
        return None
    csum = np.cumsum(ys)
    csum2 = np.cumsum(ys * ys)
    left_n = (cuts + 1).astype(np.float64)
    right_n = n - left_n
    left_sum = csum[cuts]
    left_sum2 = csum2[cuts]
    sse = (
        (left_sum2 - left_sum * left_sum / left_n)
        + ((csum2[-1] - left_sum2) - (csum[-1] - left_sum) ** 2 / right_n)
    )
    best = int(np.argmin(sse))
    a, b = float(xs[cuts[best]]), float(xs[cuts[best] + 1])
    mid = (a + b) / 2.0
    return float(sse[best]), mid if a <= mid < b else a


def _reference_node(x, y, idx, depth, hp, rng):
    yv = y[idx]
    if depth >= hp.max_depth or idx.size < 2 * hp.min_samples_leaf or yv.min() == yv.max():
        return {"v": float(yv.mean())}
    best = None
    for f in sorted(rng.subset(hp.features_per_split, 5)):
        found = _reference_best_split(x[idx, f], yv, hp.min_samples_leaf)
        if found is not None and (best is None or found[0] < best[0]):
            best = (found[0], f, found[1])
    if best is None:
        return {"v": float(yv.mean())}
    _, feature, threshold = best
    go_left = x[idx, feature] <= threshold
    return {"f": feature, "t": threshold,
            "l": _reference_node(x, y, idx[go_left], depth + 1, hp, rng),
            "r": _reference_node(x, y, idx[~go_left], depth + 1, hp, rng)}


def _reference_fit_bytes(records, hp, seed):
    x = np.array([feature_vector(r, r.resolution, r.bitrate) for r in records])
    y = np.array([r.target for r in records])
    master = SplitMix64(seed)
    trees = []
    for tree_seed in [master.next_u64() for _ in range(hp.n_trees)]:
        rng = SplitMix64(tree_seed)
        idx = rng.integers_below(len(records), len(records)) if hp.bootstrap else np.arange(len(records))
        trees.append(_reference_node(x, y, idx, 0, hp, rng))
    rec = records[0]
    return serialize_model(ForestModel.from_trees(tuple(trees), hp, seed, rec.target_kind, rec.vsr_tag))


@st.composite
def _training_sets(draw):
    n = draw(st.integers(2, 40))

    def column(values):
        # A one-value pool makes a constant column; a small pool, many ties;
        # a value and its float neighbour, a midpoint that rounds.
        pool = draw(st.one_of(
            st.lists(values, min_size=1, max_size=draw(st.sampled_from([1, 3, 40]))),
            values.map(lambda v: [v, math.nextafter(v, math.inf)]),
        ))
        return draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))

    kind = draw(st.sampled_from(["quality", "time"]))
    e = column(st.floats(0, 70))
    h = e if draw(st.booleans()) else column(st.floats(0, 15))  # a duplicated column
    l = column(st.floats(16, 235))
    r = column(st.sampled_from([360, 720, 1080, 2160]))
    b = column(st.floats(0.145, 16.8))
    t = column(st.floats(0, 100) if kind == "quality" else st.floats(1e-3, 1e3))
    return [_record(*row, kind=kind) for row in zip(e, h, l, r, b, t)]


@settings(max_examples=200, deadline=None)
@given(
    records=_training_sets(),
    n_trees=st.integers(1, 3),
    max_depth=st.integers(1, 8),
    min_samples_leaf=st.integers(1, 3),
    features_per_split=st.integers(1, 5),
    bootstrap=st.booleans(),
    seed=st.integers(0, 2**64 - 1),
)
def test_presorted_fit_equals_the_per_feature_builder(
    records, n_trees, max_depth, min_samples_leaf, features_per_split, bootstrap, seed
):
    hp = Hyperparams(n_trees, max_depth, min_samples_leaf, features_per_split, bootstrap)
    assert serialize_model(fit(records, hp, seed)) == _reference_fit_bytes(records, hp, seed)


# serialize_model as it was before it wrote the arrays: the dict view, merged
# with the provenance, through json.dumps.  Its bytes are the format's.

def _reference_model_bytes(model, provenance):
    doc = {
        "version": 1,
        "target_kind": model.target_kind,
        "vsr_tag": model.vsr_tag,
        "hyperparams": {**asdict(model.hyperparams), "seed": model.seed},
        "trees": list(model.trees),
        **(provenance or {}),
    }
    return json.dumps(doc, separators=(",", ":"), allow_nan=False).encode("ascii")


# Integers as well as floats, and -0.0, which _compile stores as float64.
_WIRE_NUMBERS = st.one_of(st.floats(-1e300, 1e300), st.integers(-2**53, 2**53), st.just(-0.0))


def _wire_tree(draw, depth_left):
    if depth_left == 0 or draw(st.booleans()):
        return {"v": draw(_WIRE_NUMBERS)}
    return {"f": draw(st.integers(0, 4)), "t": draw(_WIRE_NUMBERS),
            "l": _wire_tree(draw, depth_left - 1), "r": _wire_tree(draw, depth_left - 1)}


@st.composite
def _models(draw):
    if draw(st.booleans()):
        hp = Hyperparams(draw(st.integers(1, 3)), draw(st.integers(1, 8)), draw(st.integers(1, 3)),
                         draw(st.integers(1, 5)), draw(st.booleans()))
        return fit(draw(_training_sets()), hp, draw(st.integers(0, 2**64 - 1)))
    max_depth = draw(st.integers(1, 6))
    trees = [_wire_tree(draw, max_depth) for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):  # a tree as deep as max_depth allows
        deepest = {"v": draw(_WIRE_NUMBERS)}
        for _ in range(max_depth):
            deepest = {"f": draw(st.integers(0, 4)), "t": draw(_WIRE_NUMBERS), "l": {"v": 1}, "r": deepest}
        trees.insert(draw(st.integers(0, len(trees))), deepest)
    hp = Hyperparams(n_trees=len(trees), max_depth=max_depth)
    return ForestModel.from_trees(trees, hp, draw(st.integers(0, 2**64 - 1)),
                                  draw(st.sampled_from(["quality", "time"])), draw(st.sampled_from(["none", "fsrcnn"])))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
# Keys that repeat the model's own, whose values provenance replaces in place, and others.
_PROVENANCE = st.none() | st.dictionaries(
    st.sampled_from(["version", "target_kind", "vsr_tag", "hyperparams", "trees", "config"]) | st.text(max_size=4),
    _JSON_VALUES, max_size=4)


@settings(max_examples=150, deadline=None)
@given(model=_models(), provenance=_PROVENANCE)
def test_serialize_model_writes_the_bytes_of_the_dict_view(model, provenance):
    blob = serialize_model(model, provenance)
    assert "trees" not in vars(model)  # the dict view was not built, for fitted models too
    assert blob == _reference_model_bytes(model, provenance)
