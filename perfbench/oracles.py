"""Independent re-derivations that the benchmark checks ladderforge against.

None of these call into ``ladderforge``; each computes the same quantity by a
different route than the program does:

- block texture energy through a separable DCT-II built on ``numpy.fft``
  (the program multiplies by a cosine basis matrix);
- a forest walker that flattens the model wire format into arrays and walks
  every query row at once (the program walks nested dicts one row at a time);
- exhaustive feasible-argmax resolution selection;
- a line-by-line interpreter of the JND pruning procedure;
- BD-rate and BD-quality by dense trapezoid quadrature of independently
  fitted cubics (the program integrates the polynomial analytically).
"""

from __future__ import annotations

import json
import math

import numpy as np

N_FEATURES = 5


# ------------------------------------------------------------------ DCT


def dct2_fft(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Orthonormal DCT-II along ``axis`` via Makhoul's reordered FFT.

    ``v`` holds the even samples followed by the odd ones reversed; then
    ``X[k] = Re(exp(-i*pi*k/(2N)) * FFT(v)[k])``, scaled to orthonormal.
    """
    x = np.moveaxis(np.asarray(x, dtype=np.float64), axis, -1)
    n = x.shape[-1]
    v = np.concatenate([x[..., 0::2], x[..., 1::2][..., ::-1]], axis=-1)
    k = np.arange(n)
    out = np.real(np.fft.fft(v, axis=-1) * np.exp(-1j * math.pi * k / (2.0 * n)))
    scale = np.full(n, math.sqrt(2.0 / n))
    scale[0] = math.sqrt(1.0 / n)
    return np.moveaxis(out * scale, -1, axis)


def _weights(size: int) -> np.ndarray:
    i = np.arange(size, dtype=np.float64)
    w = np.exp(np.abs((np.outer(i, i) / (size * size)) ** 2 - 1.0))
    w[0, 0] = 0.0
    return w


def block_energies(plane: np.ndarray, block_size: int = 32) -> np.ndarray:
    """Texture energy of every zero-padded block of a plane, row-major.

    Works one row of blocks at a time so a 2160p plane never needs more
    than a few megabytes of temporaries.
    """
    h, w = plane.shape
    by, bx = -(-h // block_size), -(-w // block_size)
    weights = _weights(block_size)
    out = np.empty(by * bx)
    strip = np.zeros((block_size, bx * block_size))
    for row in range(by):
        chunk = plane[row * block_size:(row + 1) * block_size]
        strip[:] = 0.0
        strip[: chunk.shape[0], :w] = chunk
        blocks = strip.reshape(block_size, bx, block_size).transpose(1, 0, 2)
        coeffs = dct2_fft(dct2_fft(blocks, axis=2), axis=1)
        out[row * bx:(row + 1) * bx] = (np.abs(coeffs) * weights).sum(axis=(1, 2))
    return out


def segment_features(planes, block_size: int = 32) -> tuple[float, float]:
    """(E_Y, h) of a segment: frame means of block energies and their jumps."""
    textures, gradients = [], []
    prev = None
    for plane in planes:
        energies = block_energies(plane, block_size)
        denom = energies.size * block_size * block_size
        textures.append(energies.sum() / denom)
        if prev is not None:
            gradients.append(np.abs(energies - prev).sum() / denom)
        prev = energies
    return float(np.mean(textures)), float(np.mean(gradients)) if gradients else 0.0


# --------------------------------------------------------------- forest


class WireFormatError(ValueError):
    pass


class FlatTree:
    """One tree in preorder arrays; ``feature`` is -1 at leaves."""

    def __init__(self, root: object):
        feature, threshold, left, right, value = [], [], [], [], []
        self.depth = 0
        stack = [(root, 0, None)]  # (node, depth, (parent index, side))
        while stack:
            node, depth, link = stack.pop()
            index = len(feature)
            if link is not None:
                (left if link[1] == "l" else right)[link[0]] = index
            self.depth = max(self.depth, depth)
            if not isinstance(node, dict):
                raise WireFormatError("node is not an object")
            if set(node) == {"v"}:
                if not _finite(node["v"]):
                    raise WireFormatError("leaf value is not a finite number")
                feature.append(-1)
                threshold.append(0.0)
                value.append(float(node["v"]))
                left.append(-1)
                right.append(-1)
                continue
            if set(node) != {"f", "t", "l", "r"}:
                raise WireFormatError(f"node keys {sorted(node)}")
            f = node["f"]
            if not isinstance(f, int) or isinstance(f, bool) or not 0 <= f < N_FEATURES:
                raise WireFormatError(f"feature index {f!r}")
            if not _finite(node["t"]):
                raise WireFormatError("threshold is not a finite number")
            feature.append(f)
            threshold.append(float(node["t"]))
            value.append(0.0)
            left.append(-1)
            right.append(-1)
            # Right is pushed first so the left subtree is numbered first.
            stack.append((node["r"], depth + 1, (index, "r")))
            stack.append((node["l"], depth + 1, (index, "l")))
        self.feature = np.array(feature, dtype=np.intp)
        self.threshold = np.array(threshold)
        self.left = np.array(left, dtype=np.intp)
        self.right = np.array(right, dtype=np.intp)
        self.value = np.array(value)

    @property
    def nodes(self) -> int:
        return int(self.feature.size)

    def predict(self, x: np.ndarray) -> np.ndarray:
        rows = np.arange(x.shape[0])
        at = np.zeros(x.shape[0], dtype=np.intp)
        for _ in range(self.depth):
            f = self.feature[at]
            inner = f >= 0
            go_left = x[rows, np.where(inner, f, 0)] <= self.threshold[at]
            at = np.where(inner, np.where(go_left, self.left[at], self.right[at]), at)
        return self.value[at]


def _finite(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


class Forest:
    """A model file as the wire format defines it, checked and walkable."""

    def __init__(self, text: str):
        doc = json.loads(text)
        self.target_kind = doc["target_kind"]
        self.vsr_tag = doc["vsr_tag"]
        self.hyperparams = doc["hyperparams"]
        self.trees = [FlatTree(tree) for tree in doc["trees"]]
        if doc.get("version") != 1:
            raise WireFormatError(f"version {doc.get('version')!r}")
        if len(self.trees) != self.hyperparams["n_trees"]:
            raise WireFormatError(
                f"{len(self.trees)} trees, hyperparams say {self.hyperparams['n_trees']}"
            )
        deepest = max(tree.depth for tree in self.trees)
        if deepest > self.hyperparams["max_depth"]:
            raise WireFormatError(f"tree depth {deepest} > max_depth")

    @property
    def nodes(self) -> int:
        return sum(tree.nodes for tree in self.trees)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Mean tree output per row, clamped like the model's target range.

        Tree outputs are added one tree at a time, in file order, which is
        the order a sequential walk adds them in.
        """
        total = np.zeros(x.shape[0])
        for tree in self.trees:
            total += tree.predict(x)
        mean = total / len(self.trees)
        upper = 100.0 if self.target_kind == "quality" else math.inf
        return np.minimum(upper, np.maximum(0.0, mean))


def model_row(e: float, h: float, luma: float, resolution: int, bitrate: float) -> list[float]:
    """Model inputs: the three features, then log2 resolution and bitrate."""
    return [e, h, luma, math.log2(resolution), math.log2(bitrate)]


# ------------------------------------------------------------ selection


def select(quality: dict, time: dict, resolutions, bitrate, tau_l) -> tuple[int, bool]:
    """Exhaustive search: best feasible quality, lower resolution on ties.

    ``quality`` and ``time`` map (resolution, bitrate) to a prediction.  With
    nothing feasible the fastest resolution is returned, flagged over budget.
    """
    feasible = [r for r in resolutions if time[(r, bitrate)] <= tau_l]
    if feasible:
        best = max(quality[(r, bitrate)] for r in feasible)
        return min(r for r in feasible if quality[(r, bitrate)] == best), False
    fastest = min(time[(r, bitrate)] for r in resolutions)
    return min(r for r in resolutions if time[(r, bitrate)] == fastest), True


def prune(qualities: list[float], v_j: float, v_t: float) -> list[int]:
    """JND elimination, one pseudocode statement per line; kept indices."""
    m = len(qualities)
    kept = [0]
    u = 0
    if qualities[0] >= v_t:
        return kept
    t = 1
    while t < m:
        if qualities[t] - qualities[u] >= v_j:
            kept.append(t)
            u = t
            if qualities[t] >= v_t:
                return kept
        t += 1
    return kept


# ------------------------------------------------------------------ BD


def _cubic(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    vander = np.stack([np.ones_like(x), x, x * x, x * x * x], axis=1)
    return np.linalg.lstsq(vander, y, rcond=None)[0]


def _mean_gap(p_test, p_ref, lo: float, hi: float, samples: int) -> float:
    grid = np.linspace(lo, hi, samples)
    gap = np.polynomial.polynomial.polyval(grid, p_test - p_ref)
    return float(np.sum((gap[1:] + gap[:-1]) * 0.5) * (grid[1] - grid[0]) / (hi - lo))


def bd_rate(ref: list, test: list, samples: int = 100_001) -> float:
    """Percent bitrate change of ``test`` at equal quality; pairs are (rate, quality)."""
    r_rate = np.log10([p[0] for p in ref])
    t_rate = np.log10([p[0] for p in test])
    r_q = np.array([p[1] for p in ref])
    t_q = np.array([p[1] for p in test])
    lo, hi = max(r_q.min(), t_q.min()), min(r_q.max(), t_q.max())
    avg = _mean_gap(_cubic(t_q, t_rate), _cubic(r_q, r_rate), lo, hi, samples)
    return (10.0**avg - 1.0) * 100.0


def bd_quality(ref: list, test: list, samples: int = 100_001) -> float:
    """Mean quality change of ``test`` at equal log-rate; pairs are (rate, quality)."""
    r_rate = np.log10([p[0] for p in ref])
    t_rate = np.log10([p[0] for p in test])
    r_q = np.array([p[1] for p in ref])
    t_q = np.array([p[1] for p in test])
    lo, hi = max(r_rate.min(), t_rate.min()), min(r_rate.max(), t_rate.max())
    return _mean_gap(_cubic(t_rate, t_q), _cubic(r_rate, r_q), lo, hi, samples)
