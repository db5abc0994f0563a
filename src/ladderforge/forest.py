"""Random-forest regressors for per-representation quality and encoding time.

Two model kinds share one implementation: ``quality`` predicts the perceptual
score a viewer sees for a (segment, resolution, bitrate) triple, ``time``
predicts its encoding seconds.  Inputs are five ordered features:

    (texture_energy, temporal_gradient, brightness,
     log2(resolution), log2(bitrate_mbps))

with the log2 substitutions applied at the model boundary by
:func:`feature_rows`, which lays out every row; records keep the raw values,
and a :class:`TrainingSet` its rows laid out.

Training is fully deterministic for a fixed (record order, hyperparams,
seed): every tree gets a bootstrap sample (u64 mod n draws), then feature
subsets for its split candidates in level order (by depth, then left to
right), from its own splitmix stream, seeded from a master stream in tree
order.  A tree depends on nothing else, so ``fit_groups`` grows runs of a
forest's trees together and may grow several runs in worker processes at
once (``train`` uses up to ``LADDERFORGE_THREADS``); the bytes depend on
neither.  Splits minimise the summed child squared error over the
midpoints of sorted unique values of each candidate feature, or the lower
value where the midpoint would round up to the upper one or overflow; ties
go to the lowest feature index, then the lowest threshold.  Growth stops at
``max_depth``, ``min_samples_leaf`` or zero target variance.  Each tree
sorts every feature once, and each split partitions those orders stably
(the presorted CART of SLIQ); a run grows one level at a time, with no
Python per node.  ``fit`` refuses targets whose squared sums would overflow.

A model is one form: its trees as flat preorder arrays, which ``fit`` grows
directly and ``predict`` walks (see :func:`_linked`).  The wire format is a
view of them: internal nodes ``{"f": idx, "t": thr, "l": ..., "r": ...}``
(x[f] <= thr goes left) and leaves ``{"v": mean}``.  ``serialize_model``
writes that view as versioned canonical JSON straight from the arrays (see
:func:`_trees_text`), so equal seeds yield byte-identical artifacts and no
dict per node is built.  ``ForestModel.trees`` builds the view as dicts
when first read, for callers that walk trees: the tests and perfbench's
tracer.

``deserialize_model`` has two paths to the same arrays.  Text exactly as
``serialize_model`` writes it (compact, keys in their fixed order, ASCII),
followed by provenance keys, is read straight into them, with no dict per
node (the flat-array reading of Treelite, Cho & Li, SysML 2018): the node
kinds give the preorder arrays and JSON's own parser the numbers, and the
text is accepted only if ``_trees_text`` writes those arrays, with the
text's own number tokens, back to the same bytes, so the writer is the one
statement of the layout.  Any other text, valid or not, goes through
``json.loads`` and ``ForestModel.from_trees``, whose ``_compile`` checks and
flattens dict trees and owns every error and its message: the fast path
only accepts what that path accepts.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property, lru_cache
from itertools import product, repeat
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

from .complexity import SegmentFeatures
from .errors import LadderforgeError
from .rng import SplitMix64, blocks, partial_shuffle
from .table import finite_floats, ints, read_columns

__all__ = [
    "TARGET_KINDS",
    "VSR_TAGS",
    "N_FEATURES",
    "TrainingRecord",
    "TrainingSet",
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
    "feature_rows",
    "feature_vector",
    "fit",
    "fit_groups",
    "predict",
    "evaluate",
    "serialize_model",
    "model_text",
    "deserialize_model",
    "load_training_csv",
]

TARGET_KINDS = ("quality", "time")
VSR_TAGS = ("none", "fsrcnn")
N_FEATURES = 5
MODEL_FORMAT_VERSION = 1
# hyperparams.growth: each split draws its feature subset in level order.
# Files without the key drew them in preorder, and still load.
GROWTH = "level"
# Cells in a slice of a level's split search, and positions in a run of
# trees: either's arrays then take about 1 MiB.
SLICE_CELLS, RUN_POSITIONS = 1 << 14, 1 << 12
# Rows that predict walks at once: small enough that the (trees, rows) node
# indices of a block stay in cache, large enough to amortise numpy's calls.
PREDICT_BLOCK_ROWS = 1024

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
    row: int | None = None  # the index of the bad row, where TrainingSet names one


class SchemaError(ForestError):
    pass


class VersionMismatch(ForestError):
    pass


class CorruptModel(ForestError):
    pass


@dataclass(frozen=True)
class TrainingRecord:
    """One measured (or synthesised) training point: the one-row case of
    :class:`TrainingSet`, whose rules it must pass.

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
        checked = TrainingSet.from_records((self,))
        if self.target_kind == "quality":
            object.__setattr__(self, "target", float(checked.target[0]))


# TrainingRecord's fields, in order: the columns of TrainingSet.from_columns.
_RECORD_FIELDS = attrgetter("texture_energy", "temporal_gradient", "brightness", "resolution", "bitrate",
                            "target", "target_kind", "vsr_tag")
_KIND_INDEX = {kind: k for k, kind in enumerate(TARGET_KINDS)}
_TAG_INDEX = {tag: k for k, tag in enumerate(VSR_TAGS)}


@dataclass(frozen=True, eq=False)
class TrainingSet:
    """Training rows as read-only columns: ``x``, each row's features in the
    layout of :func:`feature_rows`; ``target``, quality targets clamped into
    [0, 100]; and ``kind`` and ``tag``, each row's index into
    ``TARGET_KINDS`` and ``VSR_TAGS``.  :meth:`from_columns` builds one of
    raw columns and states every rule of a training row."""

    x: np.ndarray
    target: np.ndarray
    kind: np.ndarray
    tag: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            getattr(self, f.name).flags.writeable = False

    def __len__(self) -> int:
        return len(self.target)

    def take(self, rows: np.ndarray) -> "TrainingSet":
        """The set of the rows at ``rows``, in that order."""
        return TrainingSet(self.x[rows], self.target[rows], self.kind[rows], self.tag[rows])

    @classmethod
    def from_records(cls, records: Iterable[TrainingRecord]) -> "TrainingSet":
        """The set of ``records``' rows, in order."""
        return cls.from_columns(*(list(zip(*map(_RECORD_FIELDS, records))) or [()] * 8))

    @classmethod
    def from_columns(cls, texture_energy: Sequence[float], temporal_gradient: Sequence[float],
                     brightness: Sequence[float], resolution: Sequence[Union[int, float]],
                     bitrate: Sequence[float], target: Sequence[float], target_kind: Sequence[str],
                     vsr_tag: Sequence[str]) -> "TrainingSet":
        """The set of raw columns, one entry a row, named as :class:`TrainingRecord`'s
        fields.  Each rule of a training row is a mask over the rows; the
        first row that breaks one raises :class:`InvalidRecord`, with ``row``
        its index, for the first rule it breaks in the order below."""
        n = len(target)
        numbers = np.array([texture_energy, temporal_gradient, brightness, target], np.float64).reshape(4, n)
        axes = np.asarray(resolution), np.asarray(bitrate)  # an int beyond int64 makes an object array
        kind, tag = (np.fromiter(map(index.get, names, repeat(-1)), np.intp, n)
                     for index, names in ((_KIND_INDEX, target_kind), (_TAG_INDEX, vsr_tag)))
        rules = [  # (the rows that break the rule, its message, the column it names)
            (kind < 0, f"target_kind must be one of {TARGET_KINDS}, got {{!r}}", target_kind),
            (tag < 0, f"vsr_tag must be one of {VSR_TAGS}, got {{!r}}", vsr_tag),
            *((~np.isfinite(values), f"{name} must be finite, got {{}}", column) for name, values, column in zip(
                ("texture_energy", "temporal_gradient", "brightness", "target"), numbers,
                (texture_energy, temporal_gradient, brightness, target))),
            *((~((values > 0) & (values < math.inf)), f"{name} must be finite and positive, got {{}}", column)
              for name, values, column in zip(("resolution", "bitrate"), axes, (resolution, bitrate))),
            ((kind == _KIND_INDEX["time"]) & (numbers[3] <= 0), "time targets must be positive, got {}", target),
        ]
        broken = np.array([mask for mask, _, _ in rules], bool).reshape(len(rules), n)
        if broken.any():
            row = int(broken.any(axis=0).argmax())
            _, message, column = rules[int(broken[:, row].argmax())]
            error = InvalidRecord(message.format(column[row]))
            error.row = row
            raise error
        y = numbers[3]  # min(100.0, max(0.0, t)) for quality, which makes -0.0 0.0 where np.maximum would not
        y = np.where(kind == _KIND_INDEX["quality"], np.where(y > 0.0, np.minimum(y, 100.0), 0.0), y)
        return cls(_rows(numbers[:3].T, *(_log2(axis.tolist()) for axis in axes)), y, kind, tag)


@dataclass(frozen=True)
class Hyperparams:
    n_trees: int = 100
    max_depth: int = 12
    min_samples_leaf: int = 2
    features_per_split: int = 3
    bootstrap: bool = True

    def __post_init__(self):
        for name in ("n_trees", "max_depth", "min_samples_leaf", "features_per_split"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise InvalidHyperparams(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.bootstrap, bool):
            raise InvalidHyperparams(f"bootstrap must be a boolean, got {self.bootstrap!r}")
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


@dataclass(frozen=True, eq=False)
class ForestModel:
    """A bag of regression trees as ``_compile``'s checked preorder arrays,
    plus everything needed to reproduce it.  :meth:`from_trees` builds one of
    wire-format trees; ``trees`` is that view of the arrays."""

    hyperparams: Hyperparams
    seed: int
    target_kind: str
    vsr_tag: str
    _flat: tuple = field(repr=False)  # what _compile returns

    @classmethod
    def from_trees(cls, trees: Sequence[object], hyperparams: Hyperparams, seed: int,
                   target_kind: str, vsr_tag: str) -> "ForestModel":
        """The model of wire-format trees, which are checked (else
        :class:`CorruptModel`) and flattened."""
        return cls(hyperparams, seed, target_kind, vsr_tag, _compile(trees, hyperparams.max_depth))

    @cached_property
    def trees(self) -> tuple[dict, ...]:
        """The wire-format trees, built from the arrays when first read."""
        feature, threshold, children, _, roots, _ = self._flat
        feature, threshold, right = feature.tolist(), threshold.tolist(), children[::2].tolist()

        def node(i: int) -> dict:
            if right[i] == i:
                return {"v": threshold[i]}
            return {"f": feature[i], "t": threshold[i], "l": node(i + 1), "r": node(right[i])}

        return tuple(node(root) for root in roots.tolist())


def feature_rows(
    features: Sequence[Union[SegmentFeatures, TrainingRecord]],
    resolutions: Sequence[Union[int, float]],
    bitrates: Sequence[float],
) -> np.ndarray:
    """Model-boundary feature rows for every segment at every (resolution,
    bitrate) pair: an ``(n_segments * n_resolutions * n_bitrates, 5)`` matrix
    ordered by segment, then resolution, then bitrate, built by broadcasting.
    Each resolution's and bitrate's log2 is taken once, with ``math.log2``."""
    bad = next(((r, b) for r in resolutions for b in bitrates
                if not (0 < r < math.inf and 0 < b < math.inf)), None)
    if bad is not None:
        raise InvalidRecord(f"resolution and bitrate must be finite and positive, got {bad[0]}, {bad[1]}")
    rows = _rows(_content(features)[:, None, None], _log2(resolutions)[:, None], _log2(bitrates))
    return rows.reshape(-1, N_FEATURES)


def feature_vector(
    features: Union[SegmentFeatures, TrainingRecord],
    resolution: Union[int, float],
    bitrate: float,
) -> np.ndarray:
    """Model-boundary feature vector: the one row of :func:`feature_rows`."""
    return feature_rows((features,), (resolution,), (bitrate,))[0]


def _content(features: Sequence[Union[SegmentFeatures, TrainingRecord]]) -> np.ndarray:
    return np.array([(f.texture_energy, f.temporal_gradient, f.brightness) for f in features],
                    dtype=np.float64).reshape(-1, 3)


def _log2(values: Iterable[float]) -> np.ndarray:
    return np.array([math.log2(v) for v in values], dtype=np.float64)


def _rows(content: np.ndarray, log_resolution: np.ndarray, log_bitrate: np.ndarray) -> np.ndarray:
    """The feature layout, ``content``'s last axis of three followed by the two
    logs, with the three broadcast against each other."""
    shape = np.broadcast_shapes(content.shape[:-1], log_resolution.shape, log_bitrate.shape)
    rows = np.empty((*shape, N_FEATURES))
    rows[..., :3] = content
    rows[..., 3] = log_resolution
    rows[..., 4] = log_bitrate
    return rows


def _grow_trees(x: np.ndarray, y: np.ndarray, hp: Hyperparams, seeds: Sequence[int]) -> tuple:
    """Grow the trees of ``seeds`` one level at a time, each on a bootstrap
    sample of n positions from its own seed's stream, presorted as in SLIQ
    (Mehta et al., EDBT 1996): tree i's position p is column ``i * n + p``.
    A level's nodes hold runs of columns of ``rows`` in level order, row f
    sorted by feature f, then a row in bootstrap order, which each split
    partitions stably.  Returns :func:`_preorder`'s arrays; a process pool
    can run it."""
    t, n, k, few = len(seeds), x.shape[0], hp.features_per_split, hp.min_samples_leaf
    states = np.array(seeds, np.uint64)  # each tree's stream, as SplitMix64 holds it
    idx = (blocks(states, np.full(t, n)) % np.uint64(n)).astype(np.intp) if hp.bootstrap else np.tile(np.arange(n), t)
    pad = t * n  # a position past the last, whose cells are zeros
    xb, ys, yb = np.zeros((N_FEATURES, pad + 1)), np.zeros((2, pad + 1)), y[idx]
    xb[:, :-1], ys[0, :-1], ys[1, :-1] = x[idx].T, yb, yb * yb  # ys: y and y * y
    rows = np.full((N_FEATURES + 1, pad + 1), pad)  # a last column, past the last node's, holds the pad
    rows[:N_FEATURES, :-1] = (np.argsort(xb[:, :-1].reshape(N_FEATURES, t, n), axis=2, kind="stable")
                              + n * np.arange(t)[:, None]).reshape(N_FEATURES, -1)
    rows[N_FEATURES, :-1] = np.arange(pad)
    start, size, tree = n * np.arange(t), np.full(t, n), np.arange(t)
    moduli = tuple(range(N_FEATURES, N_FEATURES - k, -1))  # below(5), below(4), ...
    goes_left = np.empty(pad + 1, bool)
    levels = []  # per level: which nodes split, their features and thresholds, the leaves' positions and sizes
    while True:
        yv = yb[rows[N_FEATURES, :-1]]
        # The leaf test: depth, size, or one target value (the least equals the greatest).
        candidates = np.flatnonzero((len(levels) < hp.max_depth) & (size >= 2 * few)
                                    & (np.minimum.reduceat(yv, start) < np.maximum.reduceat(yv, start)))
        # Each tree's candidates take a subset each from one block, in level order.
        draws = blocks(states, k * np.bincount(tree[candidates], minlength=t))
        offsets = (draws.reshape(-1, k) % np.array(moduli, np.uint64)).astype(np.intp)
        feats = _subsets(k)[np.ravel_multi_index(tuple(offsets.T), moduli)]
        cuts = split, feature, n_left, a, threshold = [np.zeros(size.size, kind) for kind in "?ppdd"]  # per node
        widths = np.frexp(size[candidates] - 1)[1]  # width 2**e holds a node of up to 2**e positions
        for e in np.bincount(widths).nonzero()[0].tolist():  # np.unique would import numpy.ma
            same = (widths == e).nonzero()[0]
            step = max(1, SLICE_CELLS // (k << e))
            for part in (same[first:first + step] for first in range(0, same.size, step)):
                nodes = candidates[part]
                for out, value in zip(cuts, _best_cuts(rows, xb, ys, start[nodes], size[nodes], feats[part], e, few)):
                    out[nodes] = value
        kept = np.repeat(split, size)
        feature, n_left, a = feature[split], n_left[split], a[split]
        levels.append((split, feature, threshold[split], rows[N_FEATURES, :-1][~kept], size[~split]))
        if not kept.any():
            break
        # The split nodes' columns, partitioned: the positions sorted below the cut go left.
        rows, sizes = rows[:, :-1].compress(kept, axis=1), size[split]
        which = np.repeat(np.arange(sizes.size), sizes)
        firsts, before = np.cumsum(sizes) - sizes, (np.cumsum(n_left) - n_left)[which]  # lefts of earlier nodes
        goes_left[rows[N_FEATURES]] = xb[feature[which], rows[N_FEATURES]] <= a[which]
        moving = goes_left[rows]
        # Each column moves to its rank among its node's columns that go its way, the right-going after the
        # left-going; the cumsum counts the left-going up to each column, from the first node's on.
        to = (np.arange(which.size) + n_left[which] + before) - np.cumsum(moving, axis=1)
        np.subtract(firsts[which] + n_left[which] + np.arange(which.size) - 1, to, out=to, where=moving)
        to += (which.size + 1) * np.arange(N_FEATURES + 1)[:, None]
        np.put(grown := np.full((N_FEATURES + 1, which.size + 1), pad), to, rows)
        rows = grown
        start = np.column_stack([firsts, firsts + n_left]).ravel()
        size = np.column_stack([n_left, sizes - n_left]).ravel()
        tree = np.repeat(tree[split], 2)
    split, feature, threshold, leaf_rows, leaf_sizes = (np.concatenate(column) for column in zip(*levels))
    firsts, means = np.cumsum(leaf_sizes) - leaf_sizes, np.empty(leaf_sizes.size)
    for m in np.bincount(leaf_sizes).nonzero()[0].tolist():  # equal sizes as the rows of one matrix, each summed alone
        same = (leaf_sizes == m).nonzero()[0]
        means[same] = np.add.reduce(yb[leaf_rows[firsts[same, None] + np.arange(m)]], 1) / m
    return _preorder(split, feature, threshold, means, [level[0].sum() for level in levels], t)


def _best_cuts(rows: np.ndarray, xb: np.ndarray, ys: np.ndarray, start: np.ndarray, size: np.ndarray,
               feats: np.ndarray, e: int, few: int) -> tuple:
    """For nodes of up to 2**e positions, padded on the right with zero cells
    so that each cumsum sums as the node's own would: whether each splits, on
    which feature, how many positions go left, the value ``a`` below the cut
    and the threshold.  Each side keeps ``few``, only cuts between distinct
    values count, and the least summed child squared error wins."""
    cols = np.arange(1 << e)
    at = np.where(cols < size[:, None], start[:, None] + cols, rows.shape[1] - 1)  # past its end, the pad column
    pos = rows.take(feats[..., None] * rows.shape[1] + at[:, None])  # each feature's positions, sorted by it
    xs = xb.take(feats[..., None] * xb.shape[1] + pos)
    csum, csum2 = ys[0].take(pos).cumsum(2), ys[1].take(pos).cumsum(2)
    lo, hi = few - 1, cols.size - few  # cut c sends the c + 1 lowest positions left
    left_n = np.arange(lo + 1.0, hi + 1.0)
    right_n = np.maximum(size[:, None, None] - left_n, 1.0)  # padded cuts leave none; they are dropped below
    left_sum, left_sum2 = csum[..., lo:hi], csum2[..., lo:hi]
    # The last cells are the totals: adding 0.0 changes no sum of targets, which are never negative.
    sse = (
        (left_sum2 - left_sum * left_sum / left_n)
        + ((csum2[..., -1:] - left_sum2) - (csum[..., -1:] - left_sum) ** 2 / right_n)
    )
    np.copyto(sse, np.inf, where=(xs[..., lo:hi] >= xs[..., lo + 1:hi + 1]) | (left_n > size[:, None, None] - few))
    sse = sse.reshape(size.size, -1)
    best = sse.argmin(1)  # the first least in row-major order
    nodes = np.arange(size.size)
    j, cut = np.divmod(best, hi - lo)
    n_left = lo + cut + 1
    a, b = xs[nodes, j, n_left - 1], xs[nodes, j, n_left]
    with np.errstate(over="ignore"):  # where a + b overflows, the split keeps a
        mid = (a + b) / 2.0
    return sse[nodes, best] < np.inf, feats[nodes, j], n_left, a, np.where((a <= mid) & (mid < b), mid, a)


@lru_cache(maxsize=N_FEATURES)
def _subsets(k: int) -> np.ndarray:
    """Row r: the subset, sorted, that ``partial_shuffle`` draws with the k
    offsets whose ``ravel_multi_index`` over ``(5, 4, ...)`` is r."""
    moduli = range(N_FEATURES, N_FEATURES - k, -1)
    table = np.array([sorted(partial_shuffle(offsets, N_FEATURES)) for offsets in product(*map(range, moduli))])
    table.flags.writeable = False  # shared by every caller
    return table


def _preorder(split: np.ndarray, feature: np.ndarray, threshold: np.ndarray, leaf_means: np.ndarray,
              level_splits: list, t: int) -> tuple:
    """Nodes given in level order, t roots first, as ``_compile``'s preorder
    ``(feature, threshold, right)`` arrays, right links counted from the
    first node; each tree's node count; and the deepest leaf's depth."""
    parent = np.flatnonzero(split)
    left = t + 2 * np.arange(parent.size)  # each level's children follow it, in pairs, in the order of the splits
    levels = [slice(end - count, end) for end, count in zip(np.cumsum(level_splits), level_splits)]
    nodes = np.ones(split.size, np.intp)  # each node's subtree size, from the deepest level up
    for at in levels[::-1]:
        nodes[parent[at]] += nodes[left[at]] + nodes[left[at] + 1]
    pre = np.empty(split.size, np.intp)  # each node's preorder index, from the roots down
    pre[:t] = np.cumsum(nodes[:t]) - nodes[:t]
    for at in levels:
        pre[left[at]] = pre[parent[at]] + 1
        pre[left[at] + 1] = pre[left[at]] + nodes[left[at]]
    out = np.zeros(split.size, np.intp), np.empty(split.size), np.arange(split.size)  # a leaf links to itself
    out[0][pre[parent]], out[1][pre[parent]], out[2][pre[parent]] = feature, threshold, pre[left + 1]
    out[1][pre[~split]] = leaf_means
    return (*out, nodes[:t], len(level_splits) - 1)


def fit(
    records: Union[TrainingSet, Sequence[TrainingRecord]],
    hyperparams: Hyperparams | None = None,
    seed: int = 0,
    map=map,
    run_length: int | None = None,
) -> ForestModel:
    """Train a forest; deterministic in (record order, hyperparams, seed).

    ``map`` grows the trees, one call per run of ``run_length`` tree seeds
    (all by default, within RUN_POSITIONS), and must yield the runs in seed
    order, as the built-in and ``Executor.map`` do; a process pool's ``map``
    grows them in parallel, to the same bytes.  An eager ``map`` lets the
    groups of :func:`fit_groups`, whose one-group case this is, grow together."""
    (model,) = fit_groups([records], hyperparams, seed, map, run_length)
    return model


def fit_groups(groups: Sequence[Union[TrainingSet, Sequence[TrainingRecord]]],
               hyperparams: Hyperparams | None = None, seed: int = 0, map=map,
               run_length: int | None = None) -> Iterator[ForestModel]:
    """The forest :func:`fit` trains on each group, in order: every group is checked, then
    ``map`` called once for each, over its runs, then each forest assembled as reached."""
    hp = hyperparams if hyperparams is not None else Hyperparams()
    sets = [_training_set(records) for records in groups]
    matrices = [_training_matrix(data) for data in sets]
    tree_seeds = SplitMix64(seed).block(hp.n_trees).tolist()  # as many next_u64() calls
    grown = []
    for x, y in matrices:  # runs of at most RUN_POSITIONS positions, unless one tree has more
        step = max(1, min(run_length or hp.n_trees, RUN_POSITIONS // y.size))
        runs = [tree_seeds[first:first + step] for first in range(0, hp.n_trees, step)]
        grown.append(map(_grow_trees, repeat(x), repeat(y), repeat(hp), runs))

    def assembled():
        for data, trees in zip(sets, grown):
            features, thresholds, rights, sizes, depths = zip(*trees)
            nodes = [feature.size for feature in features]
            right = np.concatenate(rights) + np.repeat(np.cumsum(nodes) - nodes, nodes)  # from each run's first
            sizes = np.concatenate(sizes)
            flat = _linked(np.concatenate(features), np.concatenate(thresholds), right,
                           np.cumsum(sizes) - sizes, max(depths))
            yield ForestModel(hp, seed, TARGET_KINDS[data.kind[0]], VSR_TAGS[data.tag[0]], flat)

    return assembled()


def _training_set(records: Union[TrainingSet, Sequence[TrainingRecord]]) -> TrainingSet:
    return records if isinstance(records, TrainingSet) else TrainingSet.from_records(records)


def _names(indexes: np.ndarray, names: Sequence[str]) -> list[str]:
    """The names that ``indexes`` hold, sorted."""
    return sorted(names[k] for k in set(indexes.tolist()))


def _training_matrix(data: TrainingSet) -> tuple[np.ndarray, np.ndarray]:
    """``data``'s feature rows and targets, checked to train one forest."""
    if len(data) < 2:  # one record still names the group that is too small
        group = f"{TARGET_KINDS[data.kind[0]]}/{VSR_TAGS[data.tag[0]]}: " if len(data) else ""
        raise EmptyDataset(f"{group}training needs at least 2 records, got {len(data)}")
    kinds, tags = _names(data.kind, TARGET_KINDS), _names(data.tag, VSR_TAGS)
    if len(kinds) != 1 or len(tags) != 1:
        raise MixedTargets(f"records mix target kinds {kinds} / vsr tags {tags}")
    y = data.target
    # Every sum and square the split search forms is at most (n * max|y|)**2.
    top = float(np.abs(y).max())
    reach = len(y) * top
    if not math.isfinite(reach * reach):
        raise InvalidRecord(f"targets up to {top:g} overflow the split search over {len(y)} records")
    return data.x, y


def predict(model: ForestModel, x: Sequence[float]) -> Union[float, np.ndarray]:
    """Mean of tree outputs, clamped to the target's valid range: a float for
    one feature vector, n values for an ``(n, 5)`` matrix.  Rows are walked
    ``PREDICT_BLOCK_ROWS`` at a time and outputs are added in tree order, so a
    row's value does not depend on the batch it is in."""
    rows = np.asarray(x, dtype=np.float64)
    if rows.shape[-1:] != (N_FEATURES,) or rows.ndim > 2:
        raise InvalidRecord(f"feature vector must have {N_FEATURES} entries, got shape {rows.shape}")
    feature, threshold, children, value, roots, depth = model._flat
    cells = rows.ravel()  # row-major: row i's feature f is cell N_FEATURES * i + f
    total = np.empty(cells.size // N_FEATURES)
    starts = np.arange(0, min(cells.size, N_FEATURES * PREDICT_BLOCK_ROWS), N_FEATURES)
    for first in range(0, total.size, PREDICT_BLOCK_ROWS):
        block = cells[N_FEATURES * first:N_FEATURES * (first + PREDICT_BLOCK_ROWS)]
        at_cells = starts[:block.size // N_FEATURES]
        at = np.repeat(roots[:, None], at_cells.size, axis=1)  # (trees, rows) node indices
        for _ in range(depth):
            at = children[2 * at + (block[at_cells + feature[at]] <= threshold[at])]
        # one add per tree, in tree order (np.sum would add pairwise)
        total[first:first + at_cells.size] = sum(value[at])
    upper = 100.0 if model.target_kind == "quality" else math.inf
    values = np.minimum(upper, np.maximum(0.0, total / len(roots)))
    return float(values[0]) if rows.ndim == 1 else values


def evaluate(model: ForestModel, records: Union[TrainingSet, Sequence[TrainingRecord]]) -> EvaluationStats:
    """MAE and population standard deviation of absolute errors."""
    data = _training_set(records)
    if not len(data):
        raise EmptyDataset("evaluation needs at least one record")
    kinds, tags = _names(data.kind, TARGET_KINDS), _names(data.tag, VSR_TAGS)
    if kinds != [model.target_kind] or tags != [model.vsr_tag]:
        raise MixedTargets(f"records ({kinds}, {tags}) do not match model ({model.target_kind}, {model.vsr_tag})")
    errors = np.abs(predict(model, data.x) - data.target)
    return EvaluationStats(mae=float(errors.mean()), sd=float(errors.std()))


def serialize_model(model: ForestModel, provenance: Mapping[str, object] | None = None) -> bytes:
    """Canonical versioned JSON; byte-stable for identical training runs.
    ``provenance`` adds top-level keys after ``trees``, which loading ignores;
    one that repeats a key of the model's takes its value in its place.  The
    trees are written from the model's arrays (see :func:`_trees_text`)."""
    doc = {
        "version": MODEL_FORMAT_VERSION,
        "target_kind": model.target_kind,
        "vsr_tag": model.vsr_tag,
        "hyperparams": {**asdict(model.hyperparams), "seed": model.seed, "growth": GROWTH},
        "trees": None,  # holds the place of the trees, written apart below
        **(provenance or {}),
    }
    items = list(doc.items())
    head, tail = _json(dict(items[:4]))[:-1], _json(dict(items[5:]))[1:]
    if provenance and "trees" in provenance:
        trees = _json(doc["trees"])
    else:
        numbers = _json(model._flat[1].tolist())[1:-1].split(",")
        trees = f"[{_trees_text(model._flat, numbers)}]"
    return f'{head},"trees":{trees}{"," if len(items) > 5 else ""}{tail}'.encode("ascii")


def model_text(model: ForestModel, config_doc: dict) -> str:
    """A model file's text: the model with provenance key ``config``, then a newline."""
    return serialize_model(model, {"config": config_doc}).decode("ascii") + "\n"


def _json(value: object) -> str:
    return json.dumps(value, separators=(",", ":"), allow_nan=False)


# The text that opens a split on each feature, then a leaf, before its number.
_OPENS = np.array([f'{{"f":{f},"t":' for f in range(N_FEATURES)] + ['{"v":'], object)


def _trees_text(flat: tuple, numbers: Sequence[str]) -> str:
    """The trees' wire format, comma-separated, written from ``_compile``'s
    arrays in preorder with ``numbers`` as each node's threshold or leaf
    value: a split opens ``{"f":F,"t":T,"l":``, and a leaf writes ``{"v":V}``,
    closes each split whose subtree it ends, then opens the next right
    subtree (``,"r":``) or, at the end of its tree, the next tree."""
    feature, _, children, _, roots, deepest = flat
    right = children[::2]
    split = right != np.arange(right.size)
    last = right  # each subtree's last node: right links lead to it, and a leaf to itself
    for _ in range(deepest):
        last = right[last]
    closes = np.bincount(last[split], minlength=right.size)  # the splits each leaf closes
    tree_end = np.zeros(right.size, np.intp)
    tree_end[np.append(roots[1:], right.size) - 1] = 1
    # A split's suffix is entry 0; a leaf's the one for its closes and tree_end.
    suffixes = [',"l":'] + ["}" * (c + 1) + end for c in range(deepest + 1) for end in (',"r":', ",")]
    codes = np.where(split, 0, 1 + 2 * closes + tree_end)
    pieces = [""] * (3 * right.size)
    pieces[0::3] = _OPENS[np.where(split, feature, N_FEATURES)].tolist()
    pieces[1::3] = numbers
    pieces[2::3] = np.array(suffixes, object)[codes].tolist()
    pieces[-1] = pieces[-1][:-1]  # no comma after the last tree
    return "".join(pieces)  # str: bytes.join would hold an 80-byte buffer view per piece while it joins


_LEAF_KEYS = frozenset({"v"})
_SPLIT_KEYS = frozenset({"f", "t", "l", "r"})


def _compile(trees: Sequence[object], max_depth: int) -> tuple:
    """Check the trees' wire format and flatten them, without recursion, into
    preorder ``(feature, threshold, children, value)`` arrays in which a
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
    node, for a split) and the leaf values are derived here, so ``fit`` and
    the readers fill fewer arrays.  ``children[2 * i]`` is node i's right
    child and ``children[2 * i + 1]`` its left one, so a walk steps to
    ``children[2 * i + (x[f] <= t)]``.  A forest whose trees' largest leaves add past the
    float64 maximum, in ``predict``'s tree order, is :class:`CorruptModel`."""
    nodes = np.arange(right.size)
    leaf = right == nodes
    children = np.stack([right, np.where(leaf, nodes, nodes + 1)], axis=1).ravel()
    value = np.where(leaf, threshold, 0.0)
    reach = 0.0  # bounds every partial sum predict makes, rounding included
    for largest in np.maximum.reduceat(np.abs(value), roots).tolist():
        reach += largest
    if reach == math.inf:
        raise CorruptModel("leaf values add past the float64 maximum")
    return feature, threshold, children, value, roots, deepest


# serialize_model writes these header keys in this order, then the trees.
_HEADER_KEYS = ["version", "target_kind", "vsr_tag", "hyperparams"]
_TREES_KEY = b',"trees":['
# Every byte but a number's becomes a space, so that the numbers split apart.
_NUMBERS_ONLY = bytes(c if c in b"0123456789+-.eE" else ord(" ") for c in range(256))
# json.loads gives up on nesting near the recursion limit; deeper trees are
# left to it, so that both readers agree.
FAST_DEPTH = 100


def _read_canonical(data: Union[bytes, str]) -> ForestModel | None:
    """The model in ``data``, read without a dict per node, if ``data`` is
    exactly the text ``serialize_model`` writes, provenance keys after the
    trees and trailing whitespace aside; else None.  The arrays come from
    the node kinds alone and the numbers from ``json.loads``; the trees'
    text must then be what ``_trees_text`` writes of them."""
    if not data.isascii():
        return None
    text = data.encode("ascii") if isinstance(data, str) else data
    cut = text.find(_TREES_KEY)
    end = text.find(b"]", cut)
    if cut < 0 or end < 0:
        return None
    head, body, tail = text[:cut] + b"}", text[cut + len(_TREES_KEY):end], text[end + 1:]
    del text  # the body holds all that is left to read; a copy of str data costs memory
    more = tail[:1] == b","
    try:
        header, extra = json.loads(head), json.loads(b"{" + (tail[1:] if more else tail))
        canonical = _json(header).encode() == head
    except (ValueError, RecursionError):
        return None
    # A key the tail repeats would override the one before it in json.loads.
    if (not canonical or list(header) != _HEADER_KEYS
            or bool(extra) != more or not extra.keys().isdisjoint([*_HEADER_KEYS, "trees"])):
        return None
    chars = np.frombuffer(body, np.uint8)
    opens = np.flatnonzero(chars == ord("{"))  # each node's first byte, in preorder
    if not opens.size or opens[-1] + 5 >= chars.size:
        return None
    split = chars[opens + 2] == ord("f")  # '{"f' opens a split; anything else is read as a leaf
    balance = np.cumsum(np.where(split, 1, -1))  # splits less leaves, up to each node
    # A tree ends where the balance first reaches a new low below 0.
    ends = np.flatnonzero(np.diff(np.minimum(np.minimum.accumulate(balance), 0), prepend=0))
    if not ends.size or ends[-1] != opens.size - 1:
        return None
    roots = np.append(0, ends[:-1] + 1)
    try:  # the roots stand in for the trees, whose number is checked there
        _, hp, seed, target_kind, vsr_tag = _model_fields({**header, "trees": roots.tolist()})
    except ForestError:
        return None
    n, at = opens.size, np.flatnonzero(split)
    # A split's right child is the first later node with the balance before it
    # that the split has: its successor in (balance before, position) order.
    order = np.sort(np.append(0, balance) * (n + 1) + np.arange(n + 1)) % (n + 1)
    successor = np.empty_like(order)
    successor[order[:-1]] = order[1:]
    nodes = np.arange(n)
    right = nodes.copy()  # a leaf links to itself
    right[at] = successor[at]
    parent = nodes.copy()  # a root is its own parent
    parent[at + 1] = parent[right[at]] = at
    walk, deepest = nodes.compress(~split), 0  # the leaves, walked up to their roots
    while (walk := walk.compress(parent[walk] != walk)).size:
        if deepest == min(hp.max_depth, FAST_DEPTH):  # fit never splits a node at depth max_depth
            return None
        walk, deepest = parent[walk], deepest + 1
    del order, successor, parent, nodes, balance, walk  # node-sized; free before the peak
    feature = np.where(split, chars[opens + 5] - np.intp(ord("0")), 0)  # a split's digit
    if not ((0 <= feature) & (feature < N_FEATURES)).all():
        return None
    blanked = bytearray(body)
    np.frombuffer(blanked, np.uint8)[opens[at] + 5] = ord(" ")
    numbers = blanked.translate(_NUMBERS_ONLY).decode("ascii").split()
    del blanked, opens, split, at
    if len(numbers) != n:
        return None
    try:  # JSON's own number grammar and conversion; integers, which fit never writes, read as NaN
        threshold = np.array(json.loads(f"[{','.join(numbers)}]", parse_int=lambda _: math.nan))
        if not np.isfinite(threshold).all():
            return None
        flat = _linked(feature, threshold, right, roots, deepest)
    except (ValueError, CorruptModel):
        return None
    if _trees_text(flat, numbers).encode("ascii") != body:
        return None
    return ForestModel(hp, seed, target_kind, vsr_tag, flat)


def _model_fields(doc: object) -> tuple[list, Hyperparams, int, str, str]:
    """A parsed model document's trees, hyperparams, seed, target kind and
    vsr tag, checked in this order; building the model checks the trees.
    ``hyperparams.growth``, which files written before it lack, must be
    :data:`GROWTH`."""
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
        growth = hp_doc.pop("growth", GROWTH)
        hp = Hyperparams(**hp_doc)
        target_kind = doc["target_kind"]
        vsr_tag = doc["vsr_tag"]
        trees = doc["trees"]
    except (KeyError, TypeError, ValueError, InvalidHyperparams) as exc:  # ValueError: dict("ab")
        raise CorruptModel(f"bad model structure: {exc}") from None
    if growth != GROWTH:
        raise CorruptModel(f"hyperparams.growth must be {GROWTH!r} or absent, got {growth!r}")
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
    ``json.loads`` and ``ForestModel.from_trees``.
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
    return ForestModel.from_trees(trees, hp, seed, target_kind, vsr_tag)


def load_training_csv(
    source: Iterable[str],
    *,
    resolutions: Sequence[int] | None = None,
) -> TrainingSet:
    """Parse a training CSV into a :class:`TrainingSet`, preserving row order.

    Expected header: ``segment_id,E_Y,h,L_Y,resolution,bitrate_mbps,
    vsr_tag,target_kind,target``, read as columns under the :mod:`.table`
    conventions.  When ``resolutions`` is given, each row's resolution must
    be in that set.  Schema violations raise :class:`SchemaError` naming the
    first bad line: a row's numbers are parsed, then its rules checked, then
    its resolution looked up, as a row-by-row reader would.
    """
    # In the order a row's numbers are parsed: the first that does not parse is the row's fault.
    parsers = {4: ints, 1: finite_floats, 2: finite_floats, 3: finite_floats, 5: finite_floats, 8: finite_floats}
    linenos, columns, late = read_columns(source, TRAINING_CSV_HEADER, SchemaError, parsers)
    _, e, h, l, resolution, bitrate, tag, kind, target = columns
    inside = list(map(set(resolutions).__contains__, resolution.tolist())) if resolutions is not None else []
    outside = inside.index(False) if False in inside else len(linenos)
    end = outside + 1  # that row's rules come before its lookup
    try:
        data = TrainingSet.from_columns(e[:end], h[:end], l[:end], resolution[:end], bitrate[:end], target[:end],
                                        kind[:end], tag[:end])
    except InvalidRecord as exc:
        raise SchemaError(f"line {linenos[exc.row]}: {exc}") from None
    if outside < len(linenos):
        raise SchemaError(f"line {linenos[outside]}: resolution {resolution[outside]} "
                          f"not in configured set {sorted(set(resolutions))}")
    if late is not None:
        raise late
    if not linenos:
        raise SchemaError("training CSV has a header but no data rows")
    return data
