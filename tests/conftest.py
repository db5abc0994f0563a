"""Shared independent oracles used by the unit and acceptance suites.

Everything in here deliberately re-derives results from first principles
(explicit loops, dense quadrature, exhaustive search) instead of calling the
library paths it checks.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np


# --------------------------------------------------------------- Y4M writer


def write_reference_y4m(
    planes: list[np.ndarray],
    colorspace: str = "420",
    fps: tuple[int, int] = (30, 1),
    chroma_value: int = 128,
    extra_tags: str = "",
) -> bytes:
    """Independent minimal Y4M writer (not the library serializer).

    ``planes`` are (h, w) uint8 luma arrays; chroma planes are filled with a
    constant.  Subsampled chroma dimensions round up like common tools do.
    """
    h, w = planes[0].shape
    if colorspace == "mono":
        chroma = b""
    else:
        family = "420" if colorspace.startswith("420") else colorspace
        sx, sy = {"420": (2, 2), "422": (2, 1), "444": (1, 1)}[family]
        size = math.ceil(w / sx) * math.ceil(h / sy)
        chroma = bytes([chroma_value]) * (2 * size)
    header = f"YUV4MPEG2 W{w} H{h} F{fps[0]}:{fps[1]}{extra_tags} C{colorspace}\n"
    blob = bytearray(header.encode("ascii"))
    for plane in planes:
        blob += b"FRAME\n"
        blob += plane.astype(np.uint8).tobytes()
        blob += chroma
    return bytes(blob)


# -------------------------------------------------------------- DCT oracles


def dct2_direct(block: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D DCT-II straight from the definition.

    For each output (i, j) the quadruple sum is evaluated against explicit
    cosine tables; no basis-matrix products, no FFT.
    """
    x = np.asarray(block, dtype=np.float64)
    n = x.shape[0]
    grid = np.arange(n)
    cos = np.cos(math.pi * (2.0 * grid[None, :] + 1.0) * grid[:, None] / (2.0 * n))
    scale = np.full(n, math.sqrt(2.0 / n))
    scale[0] = math.sqrt(1.0 / n)
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = scale[i] * scale[j] * np.sum(x * np.outer(cos[i], cos[j]))
    return out


def block_energy_direct(block: np.ndarray) -> float:
    """Weighted AC-magnitude sum over the direct DCT, DC excluded."""
    coeffs = dct2_direct(block)
    n = coeffs.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i == 0 and j == 0:
                continue
            weight = math.exp(abs(((i * j) / (n * n)) ** 2 - 1.0))
            total += weight * abs(coeffs[i, j])
    return total


def frame_energy_direct(plane: np.ndarray, block_size: int) -> tuple[list[float], float]:
    """Per-block direct energies (row-major) and the normalised frame value."""
    h, w = plane.shape
    by = math.ceil(h / block_size)
    bx = math.ceil(w / block_size)
    energies = []
    for iy in range(by):
        for ix in range(bx):
            tile = np.zeros((block_size, block_size))
            chunk = plane[
                iy * block_size: (iy + 1) * block_size,
                ix * block_size: (ix + 1) * block_size,
            ]
            tile[: chunk.shape[0], : chunk.shape[1]] = chunk
            energies.append(block_energy_direct(tile))
    return energies, sum(energies) / (len(energies) * block_size * block_size)


# ----------------------------------------------------- pruning interpreter


def prune_oracle(qualities: list[float], v_j: float, v_t: float) -> list[int]:
    """Line-by-line interpreter of the elimination procedure.

    Returns kept 0-based indices.  Written as an explicit program counter
    over the pseudocode statements, independent of the library's loop.
    """
    m = len(qualities)
    kept = [0]
    u = 0
    if qualities[0] >= v_t:
        return kept
    t = 1
    while t <= m - 1:
        if qualities[t] - qualities[u] >= v_j:
            kept.append(t)
            u = t
            if qualities[t] >= v_t:
                return kept
        t = t + 1
    return kept


# ------------------------------------------------ resolution search oracle


def select_oracle(
    entries: dict[tuple[int, float], tuple[float, float]],
    resolutions: list[int],
    bitrate: float,
    tau_l: float,
) -> tuple[int, bool]:
    """Exhaustive feasible-argmax with lower-resolution tie-break."""
    feasible = [
        (r, entries[(r, bitrate)][0])
        for r in resolutions
        if entries[(r, bitrate)][1] <= tau_l
    ]
    if feasible:
        best_r, best_v = feasible[0]
        for r, v in feasible[1:]:
            if v > best_v:
                best_r, best_v = r, v
        return best_r, False
    best_r = resolutions[0]
    best_t = entries[(best_r, bitrate)][1]
    for r in resolutions[1:]:
        t = entries[(r, bitrate)][1]
        if t < best_t:
            best_r, best_t = r, t
    return best_r, True


# ------------------------------------------------------- BD metric oracles


def _lstsq_cubic(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cubic coefficients (ascending powers) via an explicit normal solve."""
    vander = np.stack([np.ones_like(x), x, x**2, x**3], axis=1)
    coeffs, _, _, _ = np.linalg.lstsq(vander, y, rcond=None)
    return coeffs


def _eval_cubic(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    return coeffs[0] + coeffs[1] * x + coeffs[2] * x**2 + coeffs[3] * x**3


def _trapezoid_mean(values: np.ndarray, lo: float, hi: float) -> float:
    dx = (hi - lo) / (values.size - 1)
    integral = float(np.sum((values[1:] + values[:-1]) * 0.5 * dx))
    return integral / (hi - lo)


def bd_rate_oracle(
    ref: list[tuple[float, float]], test: list[tuple[float, float]], samples: int = 100_001
) -> float:
    """Dense-sampling BD-rate: independent fit, trapezoid quadrature."""
    ref_rate = np.log10([p[0] for p in ref])
    ref_q = np.array([p[1] for p in ref])
    test_rate = np.log10([p[0] for p in test])
    test_q = np.array([p[1] for p in test])
    p_ref = _lstsq_cubic(ref_q, ref_rate)
    p_test = _lstsq_cubic(test_q, test_rate)
    lo = max(ref_q.min(), test_q.min())
    hi = min(ref_q.max(), test_q.max())
    grid = np.linspace(lo, hi, samples)
    diff = _eval_cubic(p_test, grid) - _eval_cubic(p_ref, grid)
    return (10.0 ** _trapezoid_mean(diff, lo, hi) - 1.0) * 100.0


def bd_quality_oracle(
    ref: list[tuple[float, float]], test: list[tuple[float, float]], samples: int = 100_001
) -> float:
    """Dense-sampling BD-quality along the log-rate axis."""
    ref_rate = np.log10([p[0] for p in ref])
    ref_q = np.array([p[1] for p in ref])
    test_rate = np.log10([p[0] for p in test])
    test_q = np.array([p[1] for p in test])
    p_ref = _lstsq_cubic(ref_rate, ref_q)
    p_test = _lstsq_cubic(test_rate, test_q)
    lo = max(ref_rate.min(), test_rate.min())
    hi = min(ref_rate.max(), test_rate.max())
    grid = np.linspace(lo, hi, samples)
    diff = _eval_cubic(p_test, grid) - _eval_cubic(p_ref, grid)
    return _trapezoid_mean(diff, lo, hi)


def random_rd_pairs(
    rng: np.random.Generator, n_points: int = 5, quality_base: float = 40.0
) -> list[tuple[float, float]]:
    """A plausible RD curve: geometric-ish rates, increasing quality."""
    rates = np.cumprod(rng.uniform(1.6, 2.8, n_points)) * rng.uniform(0.1, 0.4)
    qualities = quality_base + np.cumsum(rng.uniform(1.0, 8.0, n_points))
    return list(zip(rates.tolist(), qualities.tolist()))


# ------------------------------------------------------ CSV reader oracles
#
# The row-by-row readers that ladderforge's column readers replaced: one
# generator yields each row with its line, and each row is checked, in full,
# before the next is read.


def reference_read_table(source, header, error_cls):
    """Yield ``(lineno, row)`` for each data row of ``source``, the table
    text itself or an iterable of its lines."""
    lines = io.StringIO(source) if isinstance(source, str) else source
    start = 0  # first physical line of the row being read

    def content():
        nonlocal start
        for lineno, line in enumerate(lines, start=1):
            if line and not line.isspace() and not line.startswith("#"):
                start = start or lineno
                yield line

    rows = csv.reader(content())
    try:
        first = next(rows, None)
        if first is None:
            raise error_cls(f"table is empty; header must be {','.join(header)}")
        if first != list(header):
            raise error_cls(f"line {start}: header must be {','.join(header)}")
        start = 0
        for row in rows:
            if len(row) != len(header):
                raise error_cls(f"line {start}: expected {len(header)} fields, got {len(row)}")
            yield start, row
            start = 0
    except csv.Error as exc:
        raise error_cls(f"line {start}: {exc}") from None


def reference_read_features_csv(source):
    """``[(segment_id, SegmentFeatures)]``, in row order."""
    from ladderforge.complexity import FEATURES_CSV_HEADER, ComplexityError, SegmentFeatures

    out, seen = [], set()
    for lineno, row in reference_read_table(source, FEATURES_CSV_HEADER, ComplexityError):
        if row[0] in seen:
            raise ComplexityError(f"line {lineno}: duplicate segment id {row[0]!r}")
        seen.add(row[0])
        try:
            features = SegmentFeatures(float(row[1]), float(row[2]), float(row[3]))
        except ValueError as exc:
            raise ComplexityError(f"line {lineno}: {exc}") from None
        out.append((row[0], features))
    return out


def _reference_training_row(e, h, l, resolution, bitrate, target, kind, tag):
    """The rules of a training row, in the order they are checked."""
    if kind not in ("quality", "time"):
        raise ValueError(f"target_kind must be one of ('quality', 'time'), got {kind!r}")
    if tag not in ("none", "fsrcnn"):
        raise ValueError(f"vsr_tag must be one of ('none', 'fsrcnn'), got {tag!r}")
    for name, value in (("texture_energy", e), ("temporal_gradient", h), ("brightness", l),
                        ("target", target)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    for name, value in (("resolution", resolution), ("bitrate", bitrate)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value}")
    if kind == "quality":
        target = min(100.0, max(0.0, float(target)))
    elif target <= 0:
        raise ValueError(f"time targets must be positive, got {target}")
    return e, h, l, resolution, bitrate, target, kind, tag


def reference_load_training_csv(source, resolutions=None):
    """One ``(E_Y, h, L_Y, resolution, bitrate, target, target_kind, vsr_tag)``
    tuple per row, quality targets clamped into [0, 100]."""
    from ladderforge.forest import TRAINING_CSV_HEADER, SchemaError
    from ladderforge.table import finite_float

    out = []
    for lineno, row in reference_read_table(source, TRAINING_CSV_HEADER, SchemaError):
        try:
            resolution = int(row[4])
            e, h, l = finite_float(row[1]), finite_float(row[2]), finite_float(row[3])
            bitrate, target = finite_float(row[5]), finite_float(row[8])
            out.append(_reference_training_row(e, h, l, resolution, bitrate, target, row[7], row[6]))
        except ValueError as exc:
            raise SchemaError(f"line {lineno}: {exc}") from None
        if resolutions is not None and resolution not in set(resolutions):
            raise SchemaError(f"line {lineno}: resolution {resolution} not in configured set "
                              f"{sorted(set(resolutions))}")
    if not out:
        raise SchemaError("training CSV has a header but no data rows")
    return out


def reference_load_pairing_csv(source):
    """``((bitrate, resolution), ...)`` in row order."""
    from ladderforge.ladder import PairingMissing
    from ladderforge.table import finite_float

    table = {}
    for lineno, row in reference_read_table(source, ("bitrate_mbps", "resolution"), PairingMissing):
        try:
            bitrate, resolution = finite_float(row[0]), int(row[1])
        except ValueError as exc:
            raise PairingMissing(f"line {lineno}: {exc}") from None
        if bitrate <= 0 or resolution <= 0:
            raise PairingMissing(f"line {lineno}: bitrate and resolution must be positive, "
                                 f"got {bitrate}, {resolution}")
        if bitrate in table:
            raise PairingMissing(f"line {lineno}: duplicate bitrate {bitrate}")
        table[bitrate] = resolution
    return tuple(table.items())


def reference_load_evaluation_csv(source):
    """``(scheme, [(segment_id, [(bitrate, resolution, encode_time,
    {metric: quality})])])``, segments and representations sorted: one
    EvaluatedRep per representation, grown row by row."""
    from ladderforge import metrics
    from ladderforge.metrics import (METRIC_KINDS, EvaluatedRep, MetricKindMismatch, MetricsError,
                                     SegmentMismatch)
    from ladderforge.table import finite_float

    schemes, segments = set(), {}
    for lineno, row in reference_read_table(source, metrics.EVALUATION_CSV_HEADER, SegmentMismatch):
        segment_id, scheme, bitrate_s, resolution_s, metric, quality_s, time_s = row
        schemes.add(scheme)
        if metric not in METRIC_KINDS:
            raise MetricKindMismatch(f"line {lineno}: unknown quality metric {metric!r}")
        try:
            bitrate, resolution = finite_float(bitrate_s), int(resolution_s)
            time, quality = finite_float(time_s), finite_float(quality_s)
            reps = segments.setdefault(segment_id, {})
            known = reps.get((bitrate, resolution))
            if known is None:
                reps[bitrate, resolution] = EvaluatedRep(bitrate, resolution, time, {metric: quality})
                continue
            metrics._check_time(time)
        except (ValueError, MetricsError) as exc:
            raise SegmentMismatch(f"line {lineno}: {exc}") from None
        if known.encode_time != time:
            raise SegmentMismatch(f"line {lineno}: encode time {time} contradicts "
                                  f"{known.encode_time} for the same representation")
        if metric in known.qualities:
            raise SegmentMismatch(f"line {lineno}: duplicate {metric} quality for one representation")
        known.qualities[metric] = quality
    if len(schemes) != 1:
        raise SegmentMismatch(f"evaluation CSV must hold exactly one scheme, got {sorted(schemes)}")
    return schemes.pop(), [(segment_id, [(rep.bitrate, rep.resolution, rep.encode_time,
                                          dict(sorted(rep.qualities.items())))
                                         for _, rep in sorted(reps.items())])
                           for segment_id, reps in sorted(segments.items())]


def table_segments(table):
    """An ``EvaluationTable``'s segments in the form the reference reader
    returns them: each segment id with its rows as (bitrate, resolution,
    time, qualities)."""
    from ladderforge.metrics import METRIC_KINDS

    rows = zip(table.segment.tolist(), table.bitrate.tolist(), table.resolution.tolist(),
               table.encode_time.tolist(), table.qualities.tolist(), table.present.tolist())
    out = [(segment_id, []) for segment_id in table.segment_ids]
    for i, b, r, t, qualities, present in rows:
        out[i][1].append((b, r, t, {k: q for k, q, p in zip(METRIC_KINDS, qualities, present) if p}))
    return out
