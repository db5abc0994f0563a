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
tree order.  Splits minimise the summed child squared error (equivalently,
maximise variance reduction) over the midpoints of sorted unique values of
each candidate feature; ties go to the lowest feature index, then the lowest
threshold.  Growth stops at ``max_depth``, ``min_samples_leaf`` or zero
target variance.

Trees are stored in their wire format: internal nodes
``{"f": idx, "t": thr, "l": ..., "r": ...}`` (x[f] <= thr goes left) and
leaves ``{"v": mean}``.  ``serialize_model`` emits versioned canonical JSON,
so equal seeds yield byte-identical artifacts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

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
    """A bag of regression trees plus everything needed to reproduce it."""

    trees: tuple[dict, ...]
    hyperparams: Hyperparams
    seed: int
    target_kind: str
    vsr_tag: str


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


def _best_split_for_feature(
    xv: np.ndarray, yv: np.ndarray, min_samples_leaf: int
) -> tuple[float, float] | None:
    """Lowest-SSE threshold for one feature, or None if nothing is splittable.

    Candidate thresholds are the midpoints between consecutive distinct
    sorted values; both children must keep at least ``min_samples_leaf``
    samples.  Returns (summed child SSE, threshold).
    """
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
    best = int(np.argmin(sse))  # first minimum -> lowest threshold
    cut = cuts[best]
    threshold = (xs[cut] + xs[cut + 1]) / 2.0
    return float(sse[best]), float(threshold)


def _build_node(
    x: np.ndarray,
    y: np.ndarray,
    idx: np.ndarray,
    depth: int,
    hp: Hyperparams,
    rng: SplitMix64,
) -> dict:
    yv = y[idx]
    if (
        depth >= hp.max_depth
        or idx.size < 2 * hp.min_samples_leaf
        or yv.min() == yv.max()
    ):
        return {"v": float(yv.mean())}
    best: tuple[float, int, float] | None = None
    for f in sorted(rng.subset(hp.features_per_split, N_FEATURES)):
        found = _best_split_for_feature(x[idx, f], yv, hp.min_samples_leaf)
        if found is not None and (best is None or found[0] < best[0]):
            best = (found[0], f, found[1])
    if best is None:
        return {"v": float(yv.mean())}
    _, feature, threshold = best
    go_left = x[idx, feature] <= threshold
    left = _build_node(x, y, idx[go_left], depth + 1, hp, rng)
    right = _build_node(x, y, idx[~go_left], depth + 1, hp, rng)
    return {"f": feature, "t": threshold, "l": left, "r": right}


def _grow_tree(x: np.ndarray, y: np.ndarray, hp: Hyperparams, rng: SplitMix64) -> dict:
    n = x.shape[0]
    if hp.bootstrap:
        idx = rng.integers_below(n, n)
    else:
        idx = np.arange(n, dtype=np.intp)
    return _build_node(x, y, idx, 0, hp, rng)


def fit(
    records: Sequence[TrainingRecord],
    hyperparams: Hyperparams | None = None,
    seed: int = 0,
) -> ForestModel:
    """Train a forest; deterministic in (record order, hyperparams, seed)."""
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
    master = SplitMix64(seed)
    tree_seeds = [master.next_u64() for _ in range(hp.n_trees)]
    trees = tuple(_grow_tree(x, y, hp, SplitMix64(s)) for s in tree_seeds)
    return ForestModel(
        trees=trees,
        hyperparams=hp,
        seed=seed,
        target_kind=records[0].target_kind,
        vsr_tag=records[0].vsr_tag,
    )


def _tree_predict(node: dict, x: np.ndarray) -> float:
    while "v" not in node:
        node = node["l"] if x[node["f"]] <= node["t"] else node["r"]
    return node["v"]


def predict(model: ForestModel, x: Sequence[float]) -> float:
    """Mean of tree outputs, clamped to the target's valid range."""
    vec = np.asarray(x, dtype=np.float64)
    if vec.shape != (N_FEATURES,):
        raise InvalidRecord(f"feature vector must have {N_FEATURES} entries, got shape {vec.shape}")
    total = 0.0
    for tree in model.trees:
        total += _tree_predict(tree, vec)
    value = total / len(model.trees)
    if model.target_kind == "quality":
        return min(100.0, max(0.0, value))
    return max(0.0, value)


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
    errors = np.array([abs(predict(model, row) - target) for row, target in zip(x, y)])
    return EvaluationStats(mae=float(errors.mean()), sd=float(errors.std()))


def serialize_model(model: ForestModel) -> bytes:
    """Canonical versioned JSON; byte-stable for identical training runs."""
    hp = model.hyperparams
    doc = {
        "version": MODEL_FORMAT_VERSION,
        "target_kind": model.target_kind,
        "vsr_tag": model.vsr_tag,
        "hyperparams": {
            "n_trees": hp.n_trees,
            "max_depth": hp.max_depth,
            "min_samples_leaf": hp.min_samples_leaf,
            "features_per_split": hp.features_per_split,
            "bootstrap": hp.bootstrap,
            "seed": model.seed,
        },
        "trees": list(model.trees),
    }
    return json.dumps(doc, separators=(",", ":"), allow_nan=False).encode("ascii")


def _validate_tree(root: object, name: str, max_depth: int) -> None:
    """Check one tree's wire format without recursion; ``fit`` never splits
    a node at depth ``max_depth``, so such a node marks a corrupt file."""
    stack = [(root, name, 0)]
    while stack:
        node, path, depth = stack.pop()
        if not isinstance(node, dict):
            raise CorruptModel(f"{path}: node must be an object")
        if set(node) == {"v"}:
            if not isinstance(node["v"], (int, float)) or not math.isfinite(node["v"]):
                raise CorruptModel(f"{path}: leaf value must be a finite number")
            continue
        if set(node) != {"f", "t", "l", "r"}:
            raise CorruptModel(f"{path}: node keys must be exactly {{v}} or {{f,t,l,r}}")
        if depth >= max_depth:
            raise CorruptModel(f"{path}: tree is deeper than max_depth {max_depth}")
        if not isinstance(node["f"], int) or not 0 <= node["f"] < N_FEATURES:
            raise CorruptModel(f"{path}: feature index out of range")
        if not isinstance(node["t"], (int, float)) or not math.isfinite(node["t"]):
            raise CorruptModel(f"{path}: threshold must be a finite number")
        stack.append((node["r"], path + ".r", depth + 1))
        stack.append((node["l"], path + ".l", depth + 1))


def deserialize_model(data: Union[bytes, str]) -> ForestModel:
    """Load a serialized model.

    Unknown top-level keys are ignored (the CLI adds provenance there);
    per-node structure is validated strictly.
    """
    try:
        doc = json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptModel(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise CorruptModel("JSON is nested too deeply to be a model") from None
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
    except (KeyError, TypeError, InvalidHyperparams) as exc:
        raise CorruptModel(f"bad model structure: {exc}") from None
    if target_kind not in TARGET_KINDS or vsr_tag not in VSR_TAGS:
        raise CorruptModel(f"unknown target_kind/vsr_tag: {target_kind!r}/{vsr_tag!r}")
    if not isinstance(trees, list) or not trees:
        raise CorruptModel("model must carry a nonempty tree list")
    if not isinstance(seed, int):
        raise CorruptModel("hyperparams.seed must be an integer")
    for i, tree in enumerate(trees):
        _validate_tree(tree, f"trees[{i}]", hp.max_depth)
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
