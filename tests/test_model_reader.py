"""The canonical model reader against ``json.loads`` and the model constructor.

``deserialize_model`` reads text exactly as ``serialize_model`` writes it
straight into flat arrays and hands anything else to ``json.loads`` and
``ForestModel.from_trees``.  Every outcome must be the one that second path
gives alone: the same arrays, or the same exception class and message.
"""

import json
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ladderforge import forest
from ladderforge.forest import (
    CorruptModel,
    ForestModel,
    Hyperparams,
    TrainingRecord,
    VersionMismatch,
    deserialize_model,
    fit,
    serialize_model,
)

PROVENANCE = {"config": {"seed": 3, "bitrates_mbps": [0.145, 16.8], "vsr_tag": "none"}}


def _flat_bytes(model):
    """``_flat`` as comparable values: each array's dtype and bytes, then the depth."""
    return [(a.dtype.str, a.tobytes()) if isinstance(a, np.ndarray) else a for a in model._flat]


def _header(model):
    return model.hyperparams, model.seed, model.target_kind, model.vsr_tag


def _outcome(data):
    """What loading ``data`` gives: the model's every field and array, or the
    exception's class and message."""
    try:
        model = deserialize_model(data)
    except Exception as exc:  # any class: the class is part of the outcome
        return type(exc), str(exc)
    return (*_header(model), _flat_bytes(model), serialize_model(model))


def _reference_outcome(data):
    """``_outcome`` with the fast reader turned off: json.loads and ForestModel.from_trees."""
    with mock.patch.object(forest, "_read_canonical", return_value=None):
        return _outcome(data)


def _assert_same_as_reference(data):
    got = _outcome(data)
    assert got == _reference_outcome(data)
    return got


# ------------------------------------------------------------- canonical text

_THRESHOLDS = st.floats(allow_nan=False, allow_infinity=False)  # -0.0, subnormals, 1e308
# Three trees of these leaves cannot add past the float64 maximum, which would make the model corrupt.
_LEAVES = st.floats(-5e307, 5e307)


@st.composite
def _trees(draw, depth):
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        return {"v": draw(_LEAVES)}
    return {"f": draw(st.integers(0, 4)), "t": draw(_THRESHOLDS),
            "l": draw(_trees(depth - 1)), "r": draw(_trees(depth - 1))}


@st.composite
def _models(draw):
    """A model of random trees with any finite float as a threshold and any
    float of ``_LEAVES`` as a leaf."""
    max_depth = draw(st.integers(1, 6))
    trees = tuple(draw(st.lists(_trees(max_depth), min_size=1, max_size=3)))
    hp = Hyperparams(n_trees=len(trees), max_depth=max_depth,
                     min_samples_leaf=draw(st.integers(1, 3)),
                     features_per_split=draw(st.integers(1, 5)), bootstrap=draw(st.booleans()))
    return ForestModel.from_trees(trees, hp, draw(st.integers(0, 2**64 - 1)),
                                  draw(st.sampled_from(forest.TARGET_KINDS)),
                                  draw(st.sampled_from(forest.VSR_TAGS)))


@st.composite
def _blobs(draw):
    """Canonical model text, as ``serialize_model`` and the CLI write it."""
    model = draw(_models())
    if draw(st.booleans()):
        return serialize_model(model)
    return serialize_model(model, PROVENANCE) + b"\n"


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 60),
    kind=st.sampled_from(["quality", "time"]),
    n_trees=st.integers(1, 4),
    max_depth=st.integers(1, 10),
    min_samples_leaf=st.integers(1, 3),
    features_per_split=st.integers(1, 5),
    bootstrap=st.booleans(),
)
def test_fitted_models_load_through_the_arrays_bit_for_bit(
    seed, n, kind, n_trees, max_depth, min_samples_leaf, features_per_split, bootstrap
):
    rng = np.random.default_rng(seed)
    records = [TrainingRecord(*rng.uniform([0, 0, 16], [70, 15, 235]).tolist(),
                              int(rng.choice([360, 720, 1080, 2160])), float(rng.uniform(0.145, 16.8)),
                              float(rng.uniform(1, 99) if kind == "quality" else rng.uniform(0.01, 9)), kind)
               for _ in range(n)]
    model = fit(records, Hyperparams(n_trees, max_depth, min_samples_leaf, features_per_split, bootstrap), seed)
    # fit grows the arrays itself; _compile lays the same trees out bit for bit.
    assert _flat_bytes(ForestModel.from_trees(model.trees, *_header(model))) == _flat_bytes(model)
    for blob in (serialize_model(model), serialize_model(model, PROVENANCE) + b"\n"):
        fast = forest._read_canonical(blob.decode("ascii"))
        assert fast is not None
        assert _flat_bytes(fast) == _flat_bytes(model)  # the arrays _compile makes
        assert _header(fast) == _header(model)
        assert serialize_model(deserialize_model(blob)) == serialize_model(model)


@settings(max_examples=200, deadline=None)
@given(_models())
def test_any_float_reads_back_bit_for_bit(model):
    blob = serialize_model(model)
    fast = forest._read_canonical(blob)
    assert fast is not None
    assert _flat_bytes(fast) == _flat_bytes(model)
    assert serialize_model(fast) == blob
    assert _assert_same_as_reference(blob)[4] == _flat_bytes(model)


@pytest.mark.parametrize("trees", [
    [{"v": 1e308}, {"v": 1e308}],
    [{"v": -1e308}, {"v": 1e308}],  # predict would add 0, but the check takes the largest |leaf|
    [{"v": 1e308}, {"v": 1e308}, {"v": -1e308}, {"v": -1e308}],  # mean 0, yet the sum overflows
    [{"f": 0, "t": 5.0, "l": {"v": 1.0}, "r": {"v": 1e308}}] * 2,
    [{"f": 0, "t": 5.0, "l": {"v": -1.7e308}, "r": {"v": 1.0}}, {"v": 2e307}],
])
def test_leaves_that_add_past_the_float64_maximum_are_corrupt_on_both_paths(trees):
    stub = ForestModel.from_trees(({"v": 1.0},) * len(trees), Hyperparams(n_trees=len(trees)), 0, "quality", "none")
    doc = json.loads(serialize_model(stub))
    blob = json.dumps({**doc, "trees": trees}, separators=(",", ":")).encode()
    message = "leaf values add past the float64 maximum"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert forest._read_canonical(blob) is None
        for data in (blob, b" " + blob):  # canonical text, and text json.loads reads
            assert _assert_same_as_reference(data) == (CorruptModel, message)
        with pytest.raises(CorruptModel, match=f"^{message}$"):
            ForestModel.from_trees(tuple(trees), Hyperparams(n_trees=len(trees)), 0, "quality", "none")
    assert caught == []


def test_leaves_that_add_up_to_the_float64_maximum_load_and_predict_without_warning():
    trees = ({"v": 1e308}, {"v": -7.9e307})  # the largest |leaf| values add to 1.79e308
    model = ForestModel.from_trees(trees, Hyperparams(n_trees=2), 0, "time", "none")
    model = deserialize_model(serialize_model(model))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert forest.predict(model, [1.0] * 5) == (1e308 - 7.9e307) / 2
    assert caught == []


def test_integer_numbers_are_left_to_json_loads():
    """The canonical reader refuses integer numbers, which only hand-written
    text holds; json.loads reads them, and the arrays hold them as floats, so
    the model re-serializes to the float text the canonical reader reads."""
    ints = serialize_model(ForestModel.from_trees(({"v": 1.0},), Hyperparams(n_trees=1), 0, "time", "none")
                           ).replace(b'{"v":1.0}', b'{"f":0,"t":1,"l":{"v":2},"r":{"v":3.5}}')
    floats = ints.replace(b'"t":1,', b'"t":1.0,').replace(b'{"v":2}', b'{"v":2.0}')
    assert forest._read_canonical(ints) is None
    assert serialize_model(deserialize_model(ints)) == floats
    fast = forest._read_canonical(floats)
    assert fast is not None and _flat_bytes(fast) == _flat_bytes(deserialize_model(ints))


@pytest.mark.parametrize("field, value, message", [
    ("n_trees", b"true", "n_trees must be an integer, got True"),
    ("max_depth", b"1.5", "max_depth must be an integer, got 1.5"),
    ("min_samples_leaf", b"2.0", "min_samples_leaf must be an integer, got 2.0"),
    ("bootstrap", b"7", "bootstrap must be a boolean, got 7"),
])
def test_hyperparams_of_the_wrong_type_are_corrupt_on_both_paths(field, value, message):
    model = ForestModel.from_trees(({"v": 1.0},), Hyperparams(n_trees=1), 0, "time", "none")
    blob = re.sub(rb'"%s":[^,}]*' % field.encode(), b'"%s":%s' % (field.encode(), value),
                  serialize_model(model, PROVENANCE))
    with mock.patch.object(forest, "_model_fields", wraps=forest._model_fields) as fields:
        assert forest._read_canonical(blob) is None
    # The text reaches the fast reader's header check, which refuses it.
    assert fields.call_args.args[0]["hyperparams"] == json.loads(blob)["hyperparams"]
    for text in (blob, blob.replace(b":", b": ")):  # canonical, then json.loads alone
        with pytest.raises(CorruptModel, match=f"^bad model structure: {re.escape(message)}$"):
            deserialize_model(text)
        _assert_same_as_reference(text)


def test_a_fast_loaded_model_builds_its_trees_when_asked():
    model = ForestModel.from_trees(({"f": 2, "t": -0.0, "l": {"v": 1e-300},
                                     "r": {"f": 4, "t": 1e300, "l": {"v": 5.0}, "r": {"v": -2.5}}}, {"v": 7.0}),
                                   Hyperparams(n_trees=2, max_depth=2), 11, "quality", "fsrcnn")
    fast = deserialize_model(serialize_model(model, PROVENANCE).decode("ascii"))
    assert "trees" not in vars(fast)
    assert fast.trees == model.trees
    assert math.copysign(1.0, fast.trees[0]["t"]) == -1.0
    assert vars(fast)["trees"] is fast.trees
    assert _header(fast) == _header(model) and repr(fast) == repr(model)


# ---------------------------------------------------------- everything else


def _swap_keys(blob, pick):
    """Swap the "f" and "t" of one split: the same object, another key order."""
    splits = list(re.finditer(rb'"f":(\d),"t":([^,]+)', blob))
    if not splits:  # a forest of leaves: swap the first two header keys instead
        return re.sub(rb'^\{"version":1,("target_kind":"\w+")', rb'{\1,"version":1', blob)
    m = splits[pick % len(splits)]
    return blob[:m.start()] + b'"t":' + m.group(2) + b',"f":' + m.group(1) + blob[m.end():]


_BYTES = st.sampled_from(b'{}[]":,ftlrv0123456789+-.eE \n\t\x00\x7f\xff') | st.integers(0, 255)
_MUTATIONS = st.one_of(
    st.tuples(st.just("substitute"), st.integers(0), _BYTES),
    st.tuples(st.just("insert"), st.integers(0), _BYTES),
    st.tuples(st.just("delete"), st.integers(0), st.just(0)),
    st.tuples(st.just("whitespace"), st.integers(0), st.sampled_from(b" \n\t\r")),
    st.tuples(st.just("swap keys"), st.integers(0), st.just(0)),
    st.tuples(st.just("repeat in tail"), st.integers(0),
              st.sampled_from([b'"trees":[]', b'"trees":[{"v":1.0}]', b'"version":2', b'"version":1',
                               b'"target_kind":"time"', b'"hyperparams":{}', b'"vsr_tag":"none"'])),
    st.tuples(st.just("truncate"), st.integers(0), st.just(0)),
)


def _mutate(blob, mutation):
    how, where, what = mutation
    i = where % (len(blob) + 1)
    if how == "substitute":
        i = min(i, len(blob) - 1)
        return blob[:i] + bytes([what]) + blob[i + 1:]
    if how in ("insert", "whitespace"):
        return blob[:i] + bytes([what]) + blob[i:]
    if how == "delete":
        return blob[:i] + blob[i + 1:]
    if how == "swap keys":
        return _swap_keys(blob, where)
    if how == "repeat in tail":
        body = blob.rstrip()
        return body[:-1] + b"," + what + b"}"
    return blob[:i]


@settings(max_examples=400, deadline=None)
@given(_blobs(), _MUTATIONS)
@example(b'{"version":1,"target_kind":"time","vsr_tag":"none","hyperparams":{"n_trees":1,"max_depth":12,'
         b'"min_samples_leaf":2,"features_per_split":3,"bootstrap":true,"seed":0},"trees":[{"v":1.0}]}',
         ("repeat in tail", 0, b'"trees":[{"v":2.0}]'))
def test_any_change_to_canonical_text_loads_as_json_loads_reads_it(blob, mutation):
    data = _mutate(blob, mutation)
    _assert_same_as_reference(data)
    _assert_same_as_reference(data.decode("latin-1"))


def _doc(trees=b'{"v":1.0}', max_depth=b"12", tail=b"}", n_trees=b"1"):
    return (b'{"version":1,"target_kind":"time","vsr_tag":"none","hyperparams":{"n_trees":' + n_trees
            + b',"max_depth":' + max_depth + b',"min_samples_leaf":2,"features_per_split":3,'
            b'"bootstrap":true,"seed":0},"trees":[' + trees + b"]" + tail)


@pytest.mark.parametrize("text", [
    _doc().replace(b'"version":1', b'"version": 1'),
    _doc().replace(b'"version":1,"target_kind":"time"', b'"target_kind":"time","version":1'),
    _doc().replace(b'"hyperparams":{"n_trees":1,"max_depth":12,"min_samples_leaf":2,'
                   b'"features_per_split":3,"bootstrap":true,"seed":0}', b'"hyperparams":"ab"'),
    _doc(tail=b',"trees":[{"v":2.0}]}'),
    _doc(tail=b',"version":2}'),
    _doc(tail=b',"note":"\xc3\xa9"}'),
    _doc(tail=b",}"),
    _doc(tail=b'"note":1}'),
    # numbers: malformed, integer, not a number, spaced, missing
    *(_doc(b'{"v":%s}' % number) for number in
      (b"01.0", b"1.", b"-.5", b"+1.5", b"1", b"1e999", b"true", b'"1.0"', b" 1.0", b"1.0 ", b"")),
    _doc(b'{"f":0,"t":1e999,"l":{"v":1.0},"r":{"v":2.0}}'),  # an infinite threshold
    # node kinds, feature digits and numbers as canonical, but a "}" moved to another leaf
    _doc(b'{"f":0,"t":1.0,"l":{"f":1,"t":2.0,"l":{"v":1.0}},"r":{"v":2.0},"r":{"v":3.0}}'),
    # key spelling and order, and structure that json.loads may still accept
    _doc(b'{"f":0,"t":1.0,"l":{"v":1.0},"r":{"v":2.0},"r":{"v":3.0}}'),
    _doc(b'{"f":0,"t":1.0,"l":{"v":1.0}}'),
    _doc(b'{"f":0,"t":1.0,"l":{"f":1,"t":2.0,"l":{"v":1.0},"r":{"v":2.0},"r":{"v":2.5}}}'),
    _doc(b'{"f":0,"t":1.0,"r":{"v":2.0}}'),
    _doc(b'{"f":0,"l":{"v":1.0},"r":{"v":2.0}}'),
    _doc(b'{"t":1.0,"f":0,"l":{"v":1.0},"r":{"v":2.0}}'),
    _doc(b'{"v":1.0,"r":{"v":2.0}}'),
    _doc(b'{"f":0,"t":1.0,"l":{"v":1.0,"r":{"v":2.0}}'),
    _doc(b'{"f":0,"t":1.0{"v":1.0},"r":,"l":{"v":2.0}}'),
    _doc(b'{"f":7,"t":1.0,"l":{"v":1.0},"r":{"v":2.0}}'),
    _doc(b'{"f":0{"t":1.0,"l":{"v":1.0},"r":{"v":2.0}}'),
    _doc(b'{"f":0,"t":1.0,"l":,"v":1.0},"r":{"v":2.0}}'),
    _doc(b'{"f":0,"tx:1.0,"l":{"v":1.0},"r":{"v":2.0}}'),
    _doc(b'{"f":0,x"t":1.0,"l":{"v":1.0},"r":{"v":2.0}}'),
    _doc(b'{"f":0,xt":1.0,"l":{"v":1.0},"r":{"v":2.0}}'),
    _doc(b'{"f":0,"t":1.0,"l":,"r":{"v":2.0}}'),
    _doc(b'{"v":1.0}{"v":2.0}', n_trees=b"2"),
    _doc(b'{"f":0,"t":1.0,"l":{"v":1.0},{"r":{"v":2.0}}'),
    _doc(b'{"f":0,"t":1.0,"l":{"v":1.0},{"v":1.5},"r":{"v":2.0}}'),
    _doc(b',"t":1.5,"l":{"v":1.0}'),
    _doc(b',"l":{"v":1.0}'),
    _doc(b'{"f":0{"v":1.0},"r":,"t":2.0,"l":{"v":2.0}}'),
    _doc(b'{"f":0,"t":1.0,"l":{"f":1,"t":2.0,"l":{"v":1.0},"r":{"v":2.0}},"r":{"v":3.0}}', max_depth=b"1"),
])
def test_text_that_is_not_canonical_goes_to_json_loads(text):
    assert forest._read_canonical(text) is None
    _assert_same_as_reference(text)


def test_trees_deeper_than_the_fast_reader_reads_go_to_json_loads():
    tree = {"v": 1.0}
    for depth in range(1, forest.FAST_DEPTH + 2):
        tree = {"f": 0, "t": 0.5, "l": {"v": 0.0}, "r": tree}
        text = _doc(json.dumps(tree, separators=(",", ":")).encode(), max_depth=b"200")
        assert (forest._read_canonical(text) is None) == (depth > forest.FAST_DEPTH)
    assert _assert_same_as_reference(text)[4][-1] == forest.FAST_DEPTH + 1  # the depth


@st.composite
def _near_canonical(draw):
    """Model text that is mostly canonical, each part now and then wrong in a
    way json.loads may still accept: a key missing, repeated or out of order,
    a feature out of range, an integer, boolean or string for a number,
    whitespace, a tree deeper than max_depth, a tree count that disagrees."""
    def part(canonical, *variants):
        return draw(st.sampled_from([canonical] * 8 + list(variants)))

    def number():
        return part(repr(draw(_THRESHOLDS)).encode(), b"7", b"-0", b"1E+400", b"true", b'"1.5"',
                    b" 2.5", b"0.5 ", b"", b"[1.0]", b"-.5", b"1.e3", b"NaN")

    def tree(depth):
        if depth == 0 or draw(st.integers(0, 2)) == 0:
            return b'{"v":' + number() + part(b"}", b',"v":2.0}', b',"l":{"v":1.0}}', b"} ", b"")
        keys = [b'"f":' + part(str(draw(st.integers(0, 4))).encode(), b"5", b"1.0", b"-1", b"false", b"12"),
                b'"t":' + number(), b'"l":' + tree(depth - 1), b'"r":' + tree(depth - 1)]
        edit = part(None, "drop", "repeat", "swap")
        i, j = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        if edit == "drop":
            del keys[i]
        elif edit == "repeat":
            keys.insert(j, keys[i])
        elif edit == "swap":
            keys[i], keys[j] = keys[j], keys[i]
        return b"{" + part(b",", b", ", b",,").join(keys) + b"}"

    max_depth = draw(st.integers(1, 4))
    trees = [tree(draw(st.integers(0, max_depth + 1))) for _ in range(draw(st.integers(1, 3)))]
    n_trees = part(len(trees), len(trees) + 1, 0)
    header = (b'{"version":%s,"target_kind":"quality","vsr_tag":"none","hyperparams":{"n_trees":%d,'
              b'"max_depth":%d,"min_samples_leaf":1,"features_per_split":3,"bootstrap":true,"seed":%s},'
              % (part(b"1", b"2", b"1.0", b"true"), n_trees, max_depth, part(b"5", b"5.0", b'"5"')))
    tail = part(b"}", b',"config":{"seed":1}}\n', b',"trees":[]}', b',"seed":1}', b",}", b"} x")
    return header + b'"trees":[' + part(b",", b", ", b"").join(trees) + b"]" + tail


@settings(max_examples=600, deadline=None)
@given(st.binary(max_size=200) | _near_canonical())
def test_arbitrary_bytes_give_a_model_or_a_model_error(data):
    got = _assert_same_as_reference(data)
    assert not isinstance(got[0], type) or got[0] in (CorruptModel, VersionMismatch)
