"""Spatiotemporal complexity features computed from luma planes.

Each frame is tiled into ``w x w`` blocks (default 32, zero-padded at the
borders).  A block's texture energy is the weighted sum of the absolute AC
coefficients of its orthonormal 2-D DCT-II:

    H = sum over (i, j) != (0, 0) of exp(|((i*j) / w^2)^2 - 1|) * |coef(i, j)|

The DC term is excluded so constant blocks score zero.  Frame-level values
normalise block sums by ``block_count * w^2``; the temporal gradient compares
co-located block energies of consecutive frames; brightness is the plain mean
of the unpadded luma samples.  Segment values are per-frame means, with the
gradient averaged only over frames that have a predecessor.

The transform is evaluated as two exact basis-matrix products (``A @ X @
A.T``), which is numerically the textbook DCT-II definition, just vectorised
over one block row at a time, so no uint8 frame gets a float64 copy.  The
zero padding is the one-shot transform's: a partial border block sees a step
to zero, so a flat frame whose size is not a multiple of ``w`` scores a
nonzero energy (an open defect, ROADMAP D3(b)).  For uint8 planes the result
is bitwise that of transforming the whole padded frame at once: a block's sum
of at most ``w^2`` integers, and a frame's sum of at most 2^45 bytes, is an
integer below 2^53, so every float64 partial sum is exact in any order.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import IO, Iterable, Iterator, Union

import numpy as np

from .errors import LadderforgeError
from .media import LumaFrame, VideoSequence
from .table import read_columns

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "FrameComplexity",
    "SegmentFeatures",
    "ComplexityError",
    "BlockSizeMismatch",
    "DimensionMismatch",
    "EmptySequence",
    "block_texture_energy",
    "frame_complexity",
    "segment_features",
    "write_features_csv",
    "features_text",
    "read_features_csv",
]

DEFAULT_BLOCK_SIZE = 32

FEATURES_CSV_HEADER = ("segment_id", "E_Y", "h", "L_Y")


class ComplexityError(LadderforgeError):
    pass


class BlockSizeMismatch(ComplexityError):
    pass


class DimensionMismatch(ComplexityError):
    pass


class EmptySequence(ComplexityError):
    pass


@dataclass(frozen=True)
class _Complexity:
    texture_energy: float
    temporal_gradient: float
    brightness: float

    def __post_init__(self):
        for name in ("texture_energy", "temporal_gradient", "brightness"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
        if self.brightness > 255:
            raise ValueError(f"brightness must be <= 255, got {self.brightness}")


@dataclass(frozen=True)
class FrameComplexity(_Complexity):
    """Per-frame complexity: texture energy, temporal gradient, mean luma."""


@dataclass(frozen=True)
class SegmentFeatures(_Complexity):
    """Segment-level means of the per-frame complexity values.

    ``temporal_gradient`` is 0 for single-frame segments.  These three
    numbers are the model inputs everywhere downstream.
    """


@lru_cache(maxsize=8)
def _dct_basis(size: int) -> np.ndarray:
    """Orthonormal DCT-II basis: A[i, x] = a_i * cos(pi * (2x+1) * i / (2w))."""
    x = np.arange(size)
    basis = np.cos(math.pi * (2.0 * x[None, :] + 1.0) * x[:, None] / (2.0 * size))
    basis *= math.sqrt(2.0 / size)
    basis[0, :] = math.sqrt(1.0 / size)
    basis.setflags(write=False)
    return basis


@lru_cache(maxsize=8)
def _ac_weights(size: int) -> np.ndarray:
    """exp(|((i*j)/w^2)^2 - 1|) with the DC entry zeroed out."""
    ij = np.arange(size)[:, None] * np.arange(size)[None, :]
    weights = np.exp(np.abs((ij / (size * size)) ** 2 - 1.0))
    weights[0, 0] = 0.0
    weights.setflags(write=False)
    return weights


def block_texture_energy(block: np.ndarray, block_size: int | None = None) -> float:
    """Texture energy of one square luma tile.

    The tile must already be exactly ``block_size`` (or square, if the size
    is left implicit); border padding is the caller's job.
    """
    tile = np.asarray(block, dtype=np.float64)
    if tile.ndim != 2 or tile.shape[0] != tile.shape[1]:
        raise BlockSizeMismatch(f"tile must be square, got shape {tile.shape}")
    size = tile.shape[0]
    if block_size is not None and size != block_size:
        raise BlockSizeMismatch(f"tile is {size}x{size}, expected {block_size}x{block_size}")
    return float(_block_energies(tile, size)[0])


def _block_energies(plane: np.ndarray, block_size: int) -> np.ndarray:
    """Texture energies of all blocks of a frame, row-major block order.

    Each block row is copied into a ``(w, bx * w)`` float64 strip, zero-padded
    at the right and bottom borders only, and transformed as one batch.  On a
    fractional plane the last bits may differ from a whole-frame batch's, as
    numpy sums block means in an order that depends on the batch size.
    """
    h, w = plane.shape
    by = math.ceil(h / block_size)
    bx = math.ceil(w / block_size)
    basis = _dct_basis(block_size)
    weights = _ac_weights(block_size)
    energies = np.empty(by * bx)
    strip = np.zeros((block_size, bx * block_size))
    for row in range(by):
        rows = plane[row * block_size:(row + 1) * block_size]
        strip[:len(rows), :w] = rows
        strip[len(rows):] = 0.0  # the bottom border row's padding
        blocks = strip.reshape(block_size, bx, block_size).swapaxes(0, 1).copy()
        # Removing each block's mean leaves its AC coefficients unchanged but keeps
        # the excluded DC term's rounding noise out of them: constant blocks score 0.
        blocks -= blocks.mean(axis=(1, 2), keepdims=True)
        coeffs = basis @ blocks @ basis.T
        energies[row * bx:(row + 1) * bx] = np.einsum("kij,ij->k", np.abs(coeffs), weights)
    return energies


def _frame_stats(
    frames: Iterable[Union[LumaFrame, np.ndarray]], block_size: int
) -> Iterator[tuple[float, float, float]]:
    """(texture energy, temporal gradient, brightness) of each frame in turn.

    The first frame's gradient is 0.  Only the previous frame's block
    energies and shape are kept, never its plane.
    """
    prev_energies, prev_shape = None, None
    for frame in frames:
        plane = np.asarray(frame.samples if isinstance(frame, LumaFrame) else frame)
        if plane.dtype != np.uint8:
            plane = plane.astype(np.float64, copy=False)
        if plane.ndim != 2:
            raise DimensionMismatch(f"expected a 2-D luma plane, got shape {plane.shape}")
        if prev_shape is not None and plane.shape != prev_shape:
            raise DimensionMismatch(f"previous frame is {prev_shape}, current is {plane.shape}")
        energies = _block_energies(plane, block_size)
        denom = energies.size * block_size * block_size
        gradient = 0.0
        if prev_energies is not None:
            gradient = float(np.sum(np.abs(energies - prev_energies)) / denom)
        yield float(energies.sum() / denom), gradient, float(plane.mean(dtype=np.float64))
        prev_energies, prev_shape = energies, plane.shape


def frame_complexity(
    frame: Union[LumaFrame, np.ndarray],
    prev: Union[LumaFrame, np.ndarray, None] = None,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> FrameComplexity:
    """Complexity of one frame, optionally against its predecessor.

    The temporal gradient is the normalised sum of absolute differences of
    co-located block energies; it is 0 when ``prev`` is absent.
    """
    frames = [frame] if prev is None else [prev, frame]
    *_, last = _frame_stats(frames, block_size)
    return FrameComplexity(*last)


def segment_features(
    seq: Union[VideoSequence, Iterable[Union[LumaFrame, np.ndarray]]],
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> SegmentFeatures:
    """Mean complexity features of a whole segment.

    Block energies are computed once per frame and reused for the gradient
    of the following frame, so a segment costs one transform pass.
    """
    stats = list(_frame_stats(seq, block_size))
    if not stats:
        raise EmptySequence("cannot compute features of an empty sequence")
    textures, gradients, brightnesses = zip(*stats)
    gradients = gradients[1:]  # the first frame has no predecessor
    return SegmentFeatures(
        texture_energy=float(np.mean(textures)),
        temporal_gradient=float(np.mean(gradients)) if gradients else 0.0,
        brightness=float(np.mean(brightnesses)),
    )


def write_features_csv(
    rows: Iterable[tuple[str, SegmentFeatures]],
    out: IO[str],
    *,
    comment: str | None = None,
) -> None:
    """Write one ``segment_id,E_Y,h,L_Y`` row per segment.

    An optional ``comment`` is emitted first as a ``#``-prefixed line; the
    matching reader skips such lines.
    """
    if comment is not None:
        out.write(f"# {comment}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(FEATURES_CSV_HEADER)
    for segment_id, features in rows:
        writer.writerow(
            [
                segment_id,
                repr(features.texture_energy),
                repr(features.temporal_gradient),
                repr(features.brightness),
            ]
        )


def features_text(rows: Iterable[tuple[str, SegmentFeatures]], config_doc: dict) -> str:
    """``features.csv``'s text: a ``# config`` line of compact JSON, then the rows."""
    out = io.StringIO()
    write_features_csv(rows, out, comment="config " + json.dumps(config_doc, separators=(",", ":")))
    return out.getvalue()


def read_features_csv(source: Union[str, IO[str]]) -> list[tuple[str, SegmentFeatures]]:
    """Read a features CSV, preserving row order.

    ``source`` is an open text stream or the CSV text itself, read under the
    :mod:`.table` conventions.  Raises ComplexityError on a missing or
    incorrect header or a bad row; the message carries the line number.
    """
    linenos, columns, late = read_columns(source, FEATURES_CSV_HEADER, ComplexityError)
    out: list[tuple[str, SegmentFeatures]] = []
    seen: set[str] = set()
    for lineno, *row in zip(linenos, *columns):
        segment_id = row[0]
        if segment_id in seen:
            raise ComplexityError(f"line {lineno}: duplicate segment id {segment_id!r}")
        seen.add(segment_id)
        try:
            # SegmentFeatures rejects non-finite values itself.
            features = SegmentFeatures(float(row[1]), float(row[2]), float(row[3]))
        except ValueError as exc:
            raise ComplexityError(f"line {lineno}: {exc}") from None
        out.append((segment_id, features))
    if late is not None:
        raise late
    return out
