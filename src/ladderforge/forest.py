"""Random-forest regressors for per-representation quality and encoding time.

Two model kinds share one implementation: ``quality`` predicts the perceptual
score a viewer sees for a (segment, resolution, bitrate) triple, ``time``
predicts its encoding seconds.  Inputs are five ordered features:

    (texture_energy, temporal_gradient, brightness,
     log2(resolution), log2(bitrate_mbps))

with the log2 substitutions applied at the model boundary by
:func:`feature_vector`; records keep the raw values.

Training is fully deterministic for a fixed (record order, hyperparams,
seed): every tree gets a bootstrap sample (u64 mod n draws) and per-node
feature subsets from its own splitmix stream, seeded from a master stream in
tree order.  A tree depends on nothing else, so ``fit`` may grow the trees
in worker processes (``train`` uses up to ``LADDERFORGE_THREADS`` of them)
and the model bytes never depend on how many.  Splits minimise the summed
child squared error (equivalently, maximise variance reduction) over the
midpoints of sorted unique values of each candidate feature, or the lower
value where the midpoint would round up to the upper one or overflow; ties
go to the lowest feature index, then the lowest threshold.  Growth stops at
``max_depth``, ``min_samples_leaf`` or zero target variance.  Each tree
sorts every feature once, over its bootstrap sample, and each split
partitions those orders stably (the presorted CART of SLIQ), so a node
scores all its candidate features in one 2-D pass without sorting.
``fit`` refuses targets whose squared sums would overflow.

Trees are stored in their wire format: internal nodes
``{"f": idx, "t": thr, "l": ..., "r": ...}`` (x[f] <= thr goes left) and
leaves ``{"v": mean}``.  ``serialize_model`` emits versioned canonical JSON,
so equal seeds yield byte-identical artifacts.

``deserialize_model`` has two paths to the same model.  Text exactly as
``serialize_model`` writes it (compact, keys in their fixed order, ASCII),
followed by provenance keys, is read straight into the flat arrays that
``predict`` walks, with no dict per node (:mod:`.treetext` reads the trees);
such a model builds its ``trees`` from the arrays when first asked for them.
Any other text, valid or not, goes through ``json.loads`` and the
``ForestModel`` constructor, which own every error and its message: the fast
path only accepts what that path accepts, to the same arrays.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import asdict, dataclass, field
from itertools import repeat
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from . import treetext
from .complexity import SegmentFeatures
from .errors import LadderforgeError
from .rng import SplitMix64
from .table import finite_float, read_table

__all__ = [
    "TARGET_KINDS",
    "VSR_TAGS",
    "N_FEATURES",
    "TrainingRecord",
    "Hyperparams",
    "ForestModel",
    "EvaluationStats",
    "ForestError",
    "EmptyDataset",
    "MixedTargets",
    "InvalidHyperparams",
    "InvalidRecord",
    "SchemaError",
    "VersionMismatch",
    "CorruptModel",
    "feature_vector",
    "fit",
    "predict",
    "evaluate",
    "serialize_model",
    "deserialize_model",
    "load_training_csv",
]

TARGET_KINDS = ("quality", "time")
VSR_TAGS = ("none", "fsrcnn")
N_FEATURES = 5
MODEL_FORMAT_VERSION = 1

TRAINING_CSV_HEADER = (
    "segment_id",
    "E_Y",
    "h",
    "L_Y",
    "resolution",
    "bitrate_mbps",
    "vsr_tag",
    "target_kind",
    "target",
)


class ForestError(LadderforgeError):
    pass


class EmptyDataset(ForestError):
    pass


class MixedTargets(ForestError):
    pass


class InvalidHyperparams(ForestError):
    pass


class InvalidRecord(ForestError):
    pass


class SchemaError(ForestError):
    pass


class VersionMismatch(ForestError):
    pass


class CorruptModel(ForestError):
    pass


@dataclass(frozen=True)
class TrainingRecord:
    """One measured (or synthesised) training point.

    Quality targets are clamped into [0, 100]; time targets must be
    positive seconds.
    """

    texture_energy: float
    temporal_gradient: float
    brightness: float
    resolution: int
    bitrate: float
    target: float
    target_kind: str
    vsr_tag: str = "none"

    def __post_init__(self):
        if self.target_kind not in TARGET_KINDS:
            raise InvalidRecord(f"target_kind must be one of {TARGET_KINDS}, got {self.target_kind!r}")
        if self.vsr_tag not in VSR_TAGS:
            raise InvalidRecord(f"vsr_tag must be one of {VSR_TAGS}, got {self.vsr_tag!r}")
        if self.resolution <= 0:
            raise InvalidRecord(f"resolution must be positive, got {self.resolution}")
        if self.bitrate <= 0:
            raise InvalidRecord(f"bitrate must be positive, got {self.bitrate}")
        if not math.isfinite(self.target):
            raise InvalidRecord(f"target must be finite, got {self.target}")
        if self.target_kind == "quality":
            object.__setattr__(self, "target", min(100.0, max(0.0, float(self.target))))
        elif self.target <= 0:
            raise InvalidRecord(f"time targets must be positive, got {self.target}")


@dataclass(frozen=True)
class Hyperparams:
    n_trees: int = 100
    max_depth: int = 12
    min_samples_leaf: int = 2
    features_per_split: int = 3
    bootstrap: bool = True

    def __post_init__(self):
        if self.n_trees < 1:
            raise InvalidHyperparams(f"n_trees must be >= 1, got {self.n_trees}")
        if self.max_depth < 1:
            raise InvalidHyperparams(f"max_depth must be >= 1, got {self.max_depth}")
        if self.min_samples_leaf < 1:
            raise InvalidHyperparams(f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}")
        if not 1 <= self.features_per_split <= N_FEATURES:
            raise InvalidHyperparams(
                f"features_per_split must be in [1, {N_FEATURES}], got {self.features_per_split}"
            )


@dataclass(frozen=True)
class EvaluationStats:
    mae: float
    sd: float


@dataclass(frozen=True)
class ForestModel:
    """A bag of regression trees plus everything needed to reproduce it; building
    one checks the trees (else :class:`CorruptModel`) and flattens them."""

    trees: tuple[dict, ...]
    hyperparams: Hyperparams
    seed: int
    target_kind: str
    vsr_tag: str
    _flat: tuple = field(init=False, repr=False, compare=False)  # what _compile returns

    def __post_init__(self):
        object.__setattr__(self, "_flat", _compile(self.trees, self.hyperparams.max_depth))

    @classmethod
    def _from_flat(cls, flat: tuple, hyperparams: Hyperparams, seed: int,
                   target_kind: str, vsr_tag: str) -> "ForestModel":
        """A model of trees that were checked and flattened as they were read;
        its ``trees`` are built from the arrays when first asked for."""
        model = object.__new__(cls)
        vars(model).update(_flat=flat, hyperparams=hyperparams, seed=seed,
                           target_kind=target_kind, vsr_tag=vsr_tag)
        return model

    def __getattr__(self, name: str):  # reached only for a _from_flat model's trees
        if name != "trees":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        vars(self)["trees"] = trees = _unflatten(self._flat)
        return trees


def feature_vector(
    features: Union[SegmentFeatures, TrainingRecord],
    resolution: Union[int, float],
    bitrate: float,
) -> np.ndarray:
    """Model-boundary feature vector with the log2 substitutions applied."""
    if resolution <= 0 or bitrate <= 0:
        raise InvalidRecord(
            f"resolution and bitrate must be positive, got {resolution}, {bitrate}"
        )
    return np.array(
        [
            features.texture_energy,
            features.temporal_gradient,
            features.brightness,
            math.log2(resolution),
            math.log2(bitrate),
        ]
    )


def _records_matrix(records: Sequence[TrainingRecord]) -> tuple[np.ndarray, np.ndarray]:
    x = np.array([feature_vector(rec, rec.resolution, rec.bitrate) for rec in records])
    return x, np.array([rec.target for rec in records], dtype=np.float64)


def _grow_tree(x: np.ndarray, y: np.ndarray, hp: Hyperparams, seed: int) -> dict:
    """Grow one tree, drawing from the stream of its own seed, on a bootstrap
    sample of n positions, presorted as in SLIQ (Mehta et al., EDBT 1996).  A
    node is a ``(N_FEATURES + 1, m)`` matrix of its positions: row f sorted by
    feature f with ties in bootstrap order, the last row in bootstrap order.
    A split partitions every row stably, so the children stay sorted and no
    node sorts anything.  A module-level function, so a process pool can run it."""
    n, k, rng = x.shape[0], hp.features_per_split, SplitMix64(seed)
    idx = rng.integers_below(n, n) if hp.bootstrap else np.arange(n, dtype=np.intp)
    xb, yb = x[idx].T, y[idx]
    counts = np.arange(1.0, n + 1.0)  # counts[c] = c + 1, as float64 like the sums
    goes_left = np.empty(n, dtype=bool)

    def grow(rows: np.ndarray, depth: int) -> dict:
        yv = yb[rows[-1]]
        m = yv.size
        if depth >= hp.max_depth or m < 2 * hp.min_samples_leaf or yv.min() == yv.max():
            return {"v": float(yv.sum() / m)}  # equals yv.mean(), without its overhead
        features = sorted(rng.subset(k, N_FEATURES))
        order = rows[features, :]
        xs = xb[np.array(features)[:, None], order]
        ys = yb[order]
        csum, csum2 = ys.cumsum(1), (ys * ys).cumsum(1)
        # Cut c sends the c + 1 lowest positions left; each side keeps min_samples_leaf.
        lo, hi = hp.min_samples_leaf - 1, m - hp.min_samples_leaf
        left_n, right_n = counts[lo:hi], counts[m - hi - 1:m - lo - 1][::-1]
        left_sum, left_sum2 = csum[:, lo:hi], csum2[:, lo:hi]
        sse = (
            (left_sum2 - left_sum * left_sum / left_n)
            + ((csum2[:, -1:] - left_sum2) - (csum[:, -1:] - left_sum) ** 2 / right_n)
        )
        # Only cuts between distinct values count.  The first minimum in row-major
        # order is the lowest feature, then the lowest threshold, among equal SSEs.
        sse = np.where(xs[:, lo:hi] < xs[:, lo + 1:hi + 1], sse, np.inf)
        j, cut = divmod(int(sse.argmin()), hi - lo)
        if sse[j, cut] == np.inf:
            return {"v": float(yv.sum() / m)}
        n_left = lo + cut + 1  # the positions sorted below the cut go left
        a, b = float(xs[j, n_left - 1]), float(xs[j, n_left])
        mid = (a + b) / 2.0
        threshold = mid if a <= mid < b else a  # a where the midpoint rounds up or overflows
        goes_left[order[j, :n_left]] = True
        goes_left[order[j, n_left:]] = False
        left = goes_left[rows]  # a mask's entries keep each row's order
        return {"f": features[j], "t": threshold,
                "l": grow(rows[left].reshape(N_FEATURES + 1, n_left), depth + 1),
                "r": grow(rows[~left].reshape(N_FEATURES + 1, m - n_left), depth + 1)}

    return grow(np.vstack([np.argsort(xb, axis=1, kind="stable"), np.arange(n)]), 0)


def fit(
    records: Sequence[TrainingRecord],
    hyperparams: Hyperparams | None = None,
    seed: int = 0,
    map=map,
) -> ForestModel:
    """Train a forest; deterministic in (record order, hyperparams, seed).

    ``map`` grows the trees, one call per tree seed, and must yield them in
    seed order, as the built-in and ``Executor.map`` do; a process pool's
    ``map`` grows them in parallel, to the same bytes."""
    hp = hyperparams if hyperparams is not None else Hyperparams()
    if len(records) < 2:
        raise EmptyDataset(f"training needs at least 2 records, got {len(records)}")
    kinds = {rec.target_kind for rec in records}
    tags = {rec.vsr_tag for rec in records}
    if len(kinds) != 1 or len(tags) != 1:
        raise MixedTargets(
            f"records mix target kinds {sorted(kinds)} / vsr tags {sorted(tags)}"
        )
    x, y = _records_matrix(records)
    # Every sum and square the split search forms is at most (n * max|y|)**2.
    top = float(np.abs(y).max())
    reach = len(y) * top
    if not math.isfinite(reach * reach):
        raise InvalidRecord(f"targets up to {top:g} overflow the split search over {len(y)} records")
    master = SplitMix64(seed)
    tree_seeds = [master.next_u64() for _ in range(hp.n_trees)]
    trees = tuple(map(_grow_tree, repeat(x), repeat(y), repeat(hp), tree_seeds))
    return ForestModel(
        trees=trees,
        hyperparams=hp,
        seed=seed,
        target_kind=records[0].target_kind,
        vsr_tag=records[0].vsr_tag,
    )


def predict(model: ForestModel, x: Sequence[float]) -> Union[float, np.ndarray]:
    """Mean of tree outputs, clamped to the target's valid range: a float for
    one feature vector, n values for an ``(n, 5)`` matrix.  Outputs are added
    in tree order, so a row's value does not depend on the batch it is in."""
    rows = np.asarray(x, dtype=np.float64)
    if rows.shape[-1:] != (N_FEATURES,) or rows.ndim > 2:
        raise InvalidRecord(f"feature vector must have {N_FEATURES} entries, got shape {rows.shape}")
    feature, threshold, left, right, value, roots, depth = model._flat
    cells = rows.ravel()  # row-major: row i's feature f is cell N_FEATURES * i + f
    starts = np.arange(0, cells.size, N_FEATURES)
    at = np.repeat(roots[:, None], starts.size, axis=1)  # (trees, rows) node indices
    for _ in range(depth):
        at = np.where(cells[starts + feature[at]] <= threshold[at], left[at], right[at])
    total = sum(value[at])  # one add per tree, in tree order (np.sum would add pairwise)
    upper = 100.0 if model.target_kind == "quality" else math.inf
    values = np.minimum(upper, np.maximum(0.0, total / len(roots)))
    return float(values[0]) if rows.ndim == 1 else values


def evaluate(model: ForestModel, records: Sequence[TrainingRecord]) -> EvaluationStats:
    """MAE and population standard deviation of absolute errors."""
    if not records:
        raise EmptyDataset("evaluation needs at least one record")
    kinds = {rec.target_kind for rec in records}
    tags = {rec.vsr_tag for rec in records}
    if kinds != {model.target_kind} or tags != {model.vsr_tag}:
        raise MixedTargets(
            f"records ({sorted(kinds)}, {sorted(tags)}) do not match model "
            f"({model.target_kind}, {model.vsr_tag})"
        )
    x, y = _records_matrix(records)
    errors = np.abs(predict(model, x) - y)
    return EvaluationStats(mae=float(errors.mean()), sd=float(errors.std()))


def serialize_model(model: ForestModel, provenance: Mapping[str, object] | None = None) -> bytes:
    """Canonical versioned JSON; byte-stable for identical training runs.
    ``provenance`` adds top-level keys after ``trees``, which loading ignores."""
    doc = {
        "version": MODEL_FORMAT_VERSION,
        "target_kind": model.target_kind,
        "vsr_tag": model.vsr_tag,
        "hyperparams": {**asdict(model.hyperparams), "seed": model.seed},
        "trees": list(model.trees),
        **(provenance or {}),
    }
    return json.dumps(doc, separators=(",", ":"), allow_nan=False).encode("ascii")


_LEAF_KEYS = frozenset({"v"})
_SPLIT_KEYS = frozenset({"f", "t", "l", "r"})


def _compile(trees: Sequence[object], max_depth: int) -> tuple:
    """Check the trees' wire format and flatten them, without recursion, into
    preorder ``(feature, threshold, left, right, value)`` arrays in which a
    leaf links to itself, plus each tree's root and the deepest leaf's depth.
    ``fit`` never splits a node at depth ``max_depth``, so such a node marks
    a corrupt file."""
    feature, threshold, right, roots = array("b"), array("d"), array("i"), array("i")
    deepest = 0
    for i, tree in enumerate(trees):
        root = len(feature)
        roots.append(root)
        stack = [(tree, -1, 0)]  # (node, index of the split it is right of, depth)
        try:
            while stack:
                node, right_of, depth = stack.pop()
                index = len(feature)
                if right_of >= 0:
                    right[right_of] = index
                if not isinstance(node, dict):
                    raise CorruptModel("node must be an object")
                keys = node.keys()
                if keys == _LEAF_KEYS:
                    f, t, r = 0, node["v"], index
                    if type(t) is not float and type(t) is not int or not math.isfinite(t):
                        raise CorruptModel("leaf value must be a finite number")
                    if depth > deepest:
                        deepest = depth
                elif keys != _SPLIT_KEYS:
                    raise CorruptModel("node keys must be exactly {v} or {f,t,l,r}")
                elif depth >= max_depth:
                    raise CorruptModel(f"tree is deeper than max_depth {max_depth}")
                else:
                    f, t, r = node["f"], node["t"], -1
                    if type(f) is not int or not 0 <= f < N_FEATURES:
                        raise CorruptModel("feature index out of range")
                    if type(t) is not float and type(t) is not int or not math.isfinite(t):
                        raise CorruptModel("threshold must be a finite number")
                    stack.append((node["r"], index, depth + 1))
                    stack.append((node["l"], -1, depth + 1))
                feature.append(f)
                threshold.append(t)
                right.append(r)
        except (CorruptModel, OverflowError) as exc:  # OverflowError: a huge integer
            path = ""  # from the links so far: in preorder a split's left child
            while index != root:  # follows it, and a right child follows a leaf
                parent = index - 1 if right[index - 1] != index - 1 else right.index(index)
                path, index = (".l" if parent + 1 == index else ".r") + path, parent
            raise CorruptModel(f"trees[{i}]{path}: {exc}") from None
    # Numpy gathers index with pointer-sized integers; converting once saves a copy per step.
    feature, right, roots = (np.array(a, np.intp) for a in (feature, right, roots))
    return _linked(feature, np.array(threshold), right, roots, deepest)


def _linked(feature: np.ndarray, threshold: np.ndarray, right: np.ndarray,
            roots: np.ndarray, deepest: int) -> tuple:
    """``_compile``'s result from the preorder arrays, in which a leaf links
    to itself and keeps its value in ``threshold``: the left links (the next
    node, for a split) and the leaf values are derived here, so the readers
    fill fewer arrays."""
    nodes = np.arange(right.size)
    leaf = right == nodes
    return (feature, threshold, np.where(leaf, nodes, nodes + 1), right,
            np.where(leaf, threshold, 0.0), roots, deepest)


def _unflatten(flat: tuple) -> tuple[dict, ...]:
    """The wire-format trees of ``_compile``'s arrays."""
    feature, threshold, _, right, _, roots, _ = flat
    feature, threshold, right = feature.tolist(), threshold.tolist(), right.tolist()

    def node(i: int) -> dict:
        if right[i] == i:
            return {"v": threshold[i]}
        return {"f": feature[i], "t": threshold[i], "l": node(i + 1), "r": node(right[i])}

    return tuple(node(root) for root in roots.tolist())


def _read_canonical(data: Union[bytes, str]) -> ForestModel | None:
    """The model in ``data``, read without a dict per node, if ``data`` is
    exactly the text ``serialize_model`` writes, provenance keys and trailing
    whitespace aside; else None."""
    read = treetext.read_canonical(data, N_FEATURES)
    if read is None:
        return None
    header, arrays = read
    flat = _linked(*arrays)
    try:  # the roots stand in for the trees, whose number is checked there
        _, hp, seed, target_kind, vsr_tag = _model_fields({**header, "trees": flat[5].tolist()})
    except ForestError:
        return None
    if flat[6] > hp.max_depth:  # fit never splits a node at depth max_depth
        return None
    return ForestModel._from_flat(flat, hp, seed, target_kind, vsr_tag)


def _model_fields(doc: object) -> tuple[list, Hyperparams, int, str, str]:
    """A parsed model document's trees, hyperparams, seed, target kind and
    vsr tag, checked in this order; building the model checks the trees."""
    if not isinstance(doc, dict):
        raise CorruptModel("model document must be a JSON object")
    version = doc.get("version")
    if version is None:
        raise CorruptModel("model document lacks a version field")
    if version != MODEL_FORMAT_VERSION:
        raise VersionMismatch(f"model version {version} unsupported (expected {MODEL_FORMAT_VERSION})")
    try:
        hp_doc = dict(doc["hyperparams"])
        seed = hp_doc.pop("seed")
        hp = Hyperparams(**hp_doc)
        target_kind = doc["target_kind"]
        vsr_tag = doc["vsr_tag"]
        trees = doc["trees"]
    except (KeyError, TypeError, ValueError, InvalidHyperparams) as exc:  # ValueError: dict("ab")
        raise CorruptModel(f"bad model structure: {exc}") from None
    if target_kind not in TARGET_KINDS or vsr_tag not in VSR_TAGS:
        raise CorruptModel(f"unknown target_kind/vsr_tag: {target_kind!r}/{vsr_tag!r}")
    if not isinstance(trees, list) or not trees:
        raise CorruptModel("model must carry a nonempty tree list")
    if len(trees) != hp.n_trees:
        raise CorruptModel(f"hyperparams.n_trees is {hp.n_trees} but the model has {len(trees)} trees")
    if not isinstance(seed, int):
        raise CorruptModel("hyperparams.seed must be an integer")
    return trees, hp, seed, target_kind, vsr_tag


def deserialize_model(data: Union[bytes, str]) -> ForestModel:
    """Load a serialized model.

    Unknown top-level keys are ignored (the CLI adds provenance there);
    per-node structure is validated strictly.  Canonical text is read
    straight into arrays; anything else, and every error, goes through
    ``json.loads`` and the ``ForestModel`` constructor.
    """
    model = _read_canonical(data)
    if model is not None:
        return model
    try:
        doc = json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptModel(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise CorruptModel("JSON is nested too deeply to be a model") from None
    trees, hp, seed, target_kind, vsr_tag = _model_fields(doc)
    return ForestModel(
        trees=tuple(trees),
        hyperparams=hp,
        seed=seed,
        target_kind=target_kind,
        vsr_tag=vsr_tag,
    )


def load_training_csv(
    source: Iterable[str],
    *,
    resolutions: Sequence[int] | None = None,
) -> list[TrainingRecord]:
    """Parse a training CSV into records, preserving row order.

    Expected header: ``segment_id,E_Y,h,L_Y,resolution,bitrate_mbps,
    vsr_tag,target_kind,target``, read under the :mod:`.table` conventions.
    When ``resolutions`` is given, each row's resolution must be in that
    set.  Schema violations raise :class:`SchemaError` with the line number.
    """
    records: list[TrainingRecord] = []
    allowed = set(resolutions) if resolutions is not None else None
    for lineno, row in read_table(source, TRAINING_CSV_HEADER, SchemaError):
        try:
            resolution = int(row[4])
            record = TrainingRecord(
                texture_energy=finite_float(row[1]),
                temporal_gradient=finite_float(row[2]),
                brightness=finite_float(row[3]),
                resolution=resolution,
                bitrate=finite_float(row[5]),
                vsr_tag=row[6],
                target_kind=row[7],
                target=finite_float(row[8]),
            )
        except (ValueError, InvalidRecord) as exc:
            raise SchemaError(f"line {lineno}: {exc}") from None
        if allowed is not None and resolution not in allowed:
            raise SchemaError(
                f"line {lineno}: resolution {resolution} not in configured set {sorted(allowed)}"
            )
        records.append(record)
    if not records:
        raise SchemaError("training CSV has a header but no data rows")
    return records
