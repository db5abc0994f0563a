"""Raw-video ingestion: Y4M parsing, raw-luma reading, synthetic sequences.

Only the 8-bit luma plane is ever kept; chroma is skipped, never read, and
all downstream analysis is luma-only.  Higher bit depths are rejected
outright rather than rescaled.  ``analyze`` maps its inputs, and a buffer
(``bytes``, ``bytearray``, ``mmap``) is parsed in place, never copied: each
frame is an ``np.frombuffer`` view.  Iterating a mapped sequence hands each
frame's pages back (``MADV_DONTNEED``) as it moves on.  Truncating a mapped
file from outside can kill the process (``SIGBUS``).

Y4M grammar accepted here (one LF-terminated header, then frames)::

    YUV4MPEG2 W<int> H<int> F<num>:<den> [I.] [A<n>:<d>] [C<cs>] [X...]\\n
    FRAME[ <params>]\\n <w*h luma bytes> <chroma bytes per colorspace>

``W``, ``H`` and ``F`` are mandatory.  ``I`` (interlacing) and ``A`` (pixel
aspect) are accepted and ignored; unrecognised ``X`` comments are skipped.
Supported colorspaces: the 8-bit 4:2:0 family (``C420``, ``C420jpeg``,
``C420paldv``, ``C420mpeg2``), ``C422``, ``C444`` and ``Cmono``; a missing
``C`` tag defaults to 4:2:0.  Anything else (ten-bit tags, alpha planes)
raises :class:`UnsupportedColorspace`.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, field
from fractions import Fraction
from typing import IO, Callable, Iterator, Union

import numpy as np

from .errors import LadderforgeError
from .rng import SplitMix64

__all__ = [
    "LumaFrame",
    "VideoSequence",
    "SyntheticSpec",
    "MediaError",
    "MalformedHeader",
    "UnsupportedColorspace",
    "TruncatedFrame",
    "ZeroFrames",
    "TrailingData",
    "InvalidSpec",
    "parse_y4m",
    "serialize_y4m",
    "read_raw_luma",
    "generate_synthetic",
]

_MAGIC = b"YUV4MPEG2"

# Chroma sample factors (x, y) per 8-bit colorspace; plane count is 2
# except for mono.  Subsampled dimensions round up so odd sizes stay
# parseable.
_CHROMA_SUBSAMPLING = {
    "420": (2, 2),
    "420jpeg": (2, 2),
    "420paldv": (2, 2),
    "420mpeg2": (2, 2),
    "422": (2, 1),
    "444": (1, 1),
    "mono": None,
}

SYNTHETIC_PATTERNS = ("constant", "checkerboard", "noise", "moving_gradient")
MAX_SYNTHETIC_SAMPLES = 2**31


class MediaError(LadderforgeError):
    """Base class for ingestion errors."""


class MalformedHeader(MediaError):
    pass


class UnsupportedColorspace(MediaError):
    pass


class TruncatedFrame(MediaError):
    pass


class ZeroFrames(MediaError):
    pass


class TrailingData(MediaError):
    pass


class InvalidSpec(MediaError):
    pass


@dataclass(frozen=True, eq=False)
class LumaFrame:
    """One luma plane: ``samples`` is a read-only (height, width) uint8 array."""

    width: int
    height: int
    samples: np.ndarray

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"frame dimensions must be positive, got {self.width}x{self.height}")
        arr = np.asarray(self.samples)
        if arr.ndim == 1:
            if arr.size != self.width * self.height:
                raise ValueError(
                    f"expected {self.width * self.height} samples, got {arr.size}"
                )
            arr = arr.reshape(self.height, self.width)
        if arr.shape != (self.height, self.width):
            raise ValueError(f"sample shape {arr.shape} does not match {self.height}x{self.width}")
        if arr.dtype != np.uint8:
            if not np.issubdtype(arr.dtype, np.integer):
                raise ValueError("luma samples must be integers")
            if arr.size and (arr.min() < 0 or arr.max() > 255):
                raise ValueError("luma samples must lie in [0, 255]")
            arr = arr.astype(np.uint8)
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LumaFrame):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and np.array_equal(self.samples, other.samples)
        )

    def tobytes(self) -> bytes:
        return self.samples.tobytes()


@dataclass(frozen=True, eq=False)
class VideoSequence:
    """An immutable list of equal-sized luma frames plus a frame rate."""

    frames: tuple[LumaFrame, ...]
    framerate: Fraction
    _release: Callable[[int], None] = field(default=lambda index: None, repr=False, compare=False)

    def __post_init__(self):
        frames = tuple(self.frames)
        if not frames:
            raise ZeroFrames("a sequence needs at least one frame")
        w, h = frames[0].width, frames[0].height
        for i, frame in enumerate(frames):
            if frame.width != w or frame.height != h:
                raise ValueError(
                    f"frame {i} is {frame.width}x{frame.height}, expected {w}x{h}"
                )
        rate = Fraction(self.framerate)
        if rate <= 0:
            raise ValueError(f"framerate must be positive, got {rate}")
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "framerate", rate)

    @property
    def width(self) -> int:
        return self.frames[0].width

    @property
    def height(self) -> int:
        return self.frames[0].height

    @property
    def duration(self) -> float:
        """Seconds of video: frame count over frame rate."""
        return float(len(self.frames) / self.framerate)

    def __len__(self) -> int:
        return len(self.frames)

    def __iter__(self) -> Iterator[LumaFrame]:
        for index, frame in enumerate(self.frames):
            yield frame
            self._release(index)  # hands back the pages of a mapped frame just passed

    def __eq__(self, other) -> bool:
        if not isinstance(other, VideoSequence):
            return NotImplemented
        return self.framerate == other.framerate and self.frames == other.frames


def _as_buffer(stream) -> Union[bytes, bytearray, mmap.mmap]:
    """A searchable buffer as it is (an mmap's ``read`` would copy it); a file read whole."""
    if isinstance(stream, (bytes, bytearray, mmap.mmap)):
        return stream
    return stream.read() if hasattr(stream, "read") else bytes(stream)


def _release_pages(data, start: int, end: int) -> None:
    """Hand the pages of bytes [start, end) of a map back to the kernel."""
    if isinstance(data, mmap.mmap) and hasattr(mmap, "MADV_DONTNEED"):
        start -= start % mmap.PAGESIZE
        data.madvise(mmap.MADV_DONTNEED, start, end - start)


def _parse_positive_int(raw: bytes, tag: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise MalformedHeader(f"tag {tag} has non-integer value {raw!r}") from None
    if value <= 0:
        raise MalformedHeader(f"tag {tag} must be positive, got {value}")
    return value


def _parse_framerate(raw: bytes) -> Fraction:
    num, sep, den = raw.partition(b":")
    if not sep:
        raise MalformedHeader(f"framerate tag must be <num>:<den>, got {raw!r}")
    try:
        rate = Fraction(int(num), int(den))
    except (ValueError, ZeroDivisionError):
        raise MalformedHeader(f"invalid framerate {raw!r}") from None
    if rate <= 0:
        raise MalformedHeader(f"framerate must be positive, got {raw!r}")
    return rate


def _chroma_bytes_per_frame(colorspace: str, width: int, height: int) -> int:
    sub = _CHROMA_SUBSAMPLING[colorspace]
    if sub is None:
        return 0
    sx, sy = sub
    return 2 * math.ceil(width / sx) * math.ceil(height / sy)


def parse_y4m(stream: Union[bytes, bytearray, memoryview, mmap.mmap, IO[bytes]]) -> VideoSequence:
    """Parse a Y4M stream into a luma-only :class:`VideoSequence`.

    The whole stream must be consumed by valid frames; residual bytes after
    the last frame raise :class:`TrailingData`.

    Raises:
        MalformedHeader: missing magic, missing/invalid W/H/F tags, or a
            corrupt in-stream FRAME marker.
        UnsupportedColorspace: a ``C`` tag outside the supported 8-bit set.
        TruncatedFrame: the stream ends inside a frame header or plane.
        ZeroFrames: a valid header followed by no frames.
        TrailingData: unparseable residue after the last complete frame.
    """
    data = _as_buffer(stream)
    if data[:len(_MAGIC)] != _MAGIC:
        raise MalformedHeader("stream does not start with YUV4MPEG2")
    header_end = data.find(b"\n")
    if header_end < 0:
        raise MalformedHeader("stream header is not LF-terminated")
    rest = data[len(_MAGIC):header_end]
    if rest and not rest.startswith(b" "):
        raise MalformedHeader("magic must be followed by a space or LF")

    width = height = None
    framerate = None
    colorspace = "420"
    for tag in rest.split():
        key, value = tag[:1], tag[1:]
        if key == b"W":
            width = _parse_positive_int(value, "W")
        elif key == b"H":
            height = _parse_positive_int(value, "H")
        elif key == b"F":
            framerate = _parse_framerate(value)
        elif key == b"C":
            name = value.decode("ascii", errors="replace")
            if name not in _CHROMA_SUBSAMPLING:
                raise UnsupportedColorspace(f"colorspace C{name} is not supported")
            colorspace = name
        elif key in (b"I", b"A", b"X"):
            continue
        # Unknown single-letter tags are tolerated, like most Y4M readers do.
    if width is None or height is None or framerate is None:
        missing = [t for t, v in (("W", width), ("H", height), ("F", framerate)) if v is None]
        raise MalformedHeader(f"header is missing mandatory tag(s): {', '.join(missing)}")

    luma_size = width * height
    chroma_size = _chroma_bytes_per_frame(colorspace, width, height)
    frames: list[LumaFrame] = []
    offsets: list[int] = []
    pos = header_end + 1
    total = len(data)
    while pos < total:
        if data[pos:pos + 5] != b"FRAME":
            raise TrailingData(f"{total - pos} unparseable byte(s) after frame {len(frames)}")
        marker_end = data.find(b"\n", pos)
        if marker_end < 0:
            raise TruncatedFrame("stream ends inside a FRAME header")
        if marker_end > pos + 5 and data[pos + 5: pos + 6] != b" ":
            raise MalformedHeader(f"corrupt FRAME marker before frame {len(frames)}")
        plane_start = marker_end + 1
        # Reading a marker can map a whole large page-cache folio (2 MiB).
        _release_pages(data, offsets[-1] if offsets else 0, plane_start)
        plane_end = plane_start + luma_size + chroma_size
        if plane_end > total:
            raise TruncatedFrame(f"stream ends inside frame {len(frames)}")
        luma = np.frombuffer(data, dtype=np.uint8, count=luma_size, offset=plane_start)
        frames.append(LumaFrame(width, height, luma.reshape(height, width)))
        offsets.append(plane_start)
        pos = plane_end
    if not frames:
        raise ZeroFrames("header was valid but the stream contains no FRAME")
    bounds = [*offsets, total]  # frame i's pages: its luma up to the next frame's
    return VideoSequence(tuple(frames), framerate, lambda i: _release_pages(data, *bounds[i:i + 2]))


def serialize_y4m(seq: VideoSequence) -> bytes:
    """Serialize the luma plane of a sequence as a mono Y4M stream."""
    rate = seq.framerate
    parts = [
        b"YUV4MPEG2 W%d H%d F%d:%d Cmono\n"
        % (seq.width, seq.height, rate.numerator, rate.denominator)
    ]
    for frame in seq.frames:
        parts.append(b"FRAME\n")
        parts.append(frame.tobytes())
    return b"".join(parts)


def read_raw_luma(
    stream: Union[bytes, bytearray, memoryview, mmap.mmap, IO[bytes]],
    width: int,
    height: int,
    framerate: Union[Fraction, int],
) -> VideoSequence:
    """Read headerless luma frames stored as consecutive width*height blocks."""
    if width <= 0 or height <= 0:
        raise InvalidSpec(f"dimensions must be positive, got {width}x{height}")
    data = _as_buffer(stream)
    frame_size = width * height
    n_frames, residue = divmod(len(data), frame_size)
    if residue:
        raise TruncatedFrame(f"{residue} byte(s) left over after frame {n_frames}")
    if n_frames == 0:
        raise ZeroFrames("stream holds no complete frame")
    planes = np.frombuffer(data, dtype=np.uint8).reshape(n_frames, height, width)
    frames = tuple(LumaFrame(width, height, plane) for plane in planes)
    return VideoSequence(frames, Fraction(framerate),
                         lambda i: _release_pages(data, i * frame_size, (i + 1) * frame_size))


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for a deterministic test sequence.

    Patterns:
        constant:        every sample equals ``level``.
        checkerboard:    static tiles of ``period`` pixels, 235 where
                         ``floor(i/period) + floor(j/period)`` is even, 16
                         elsewhere (i = row, j = column).
        noise:           per-frame Gaussian noise around 128 with standard
                         deviation ``sigma``, rounded and clipped to [0, 255];
                         all frames draw from one seeded stream.
        moving_gradient: ``(i + j + round(velocity * t)) mod 256`` for frame
                         index t, a diagonal ramp sliding over time.

    A spec holds at most ``MAX_SYNTHETIC_SAMPLES`` (2**31) samples, ``width * height * frames``.
    """

    width: int
    height: int
    frames: int
    framerate: Union[Fraction, int] = 30
    pattern: str = "noise"
    seed: int = 0
    level: int = 128
    period: int = 8
    sigma: float = 20.0
    velocity: float = 1.0

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise InvalidSpec(f"dimensions must be positive, got {self.width}x{self.height}")
        if self.frames <= 0:
            raise InvalidSpec(f"frame count must be positive, got {self.frames}")
        if self.width * self.height * self.frames > MAX_SYNTHETIC_SAMPLES:
            raise InvalidSpec(f"sample count must be at most {MAX_SYNTHETIC_SAMPLES}, "
                              f"got {self.width}x{self.height}x{self.frames}")
        if self.pattern not in SYNTHETIC_PATTERNS:
            raise InvalidSpec(
                f"unknown pattern {self.pattern!r}; expected one of {SYNTHETIC_PATTERNS}"
            )
        if Fraction(self.framerate) <= 0:
            raise InvalidSpec("framerate must be positive")
        if not 0 <= self.level <= 255:
            raise InvalidSpec(f"level must be in [0, 255], got {self.level}")
        if self.period <= 0:
            raise InvalidSpec(f"period must be positive, got {self.period}")
        if not 0 <= self.sigma < math.inf:
            raise InvalidSpec(f"sigma must be nonnegative and finite, got {self.sigma}")
        if not math.isfinite(self.velocity * (self.frames - 1)):
            raise InvalidSpec(f"velocity must keep the last frame's shift finite, got {self.velocity}")


def generate_synthetic(spec: SyntheticSpec) -> VideoSequence:
    """Build the sequence described by ``spec``; pure in (spec, seed)."""
    w, h = spec.width, spec.height
    planes: list[np.ndarray] = []
    if spec.pattern == "constant":
        plane = np.full((h, w), spec.level, dtype=np.uint8)
        planes = [plane] * spec.frames
    elif spec.pattern == "checkerboard":
        period = min(spec.period, max(w, h))  # a longer period draws the same one tile
        rows = np.arange(h)[:, None] // period
        cols = np.arange(w)[None, :] // period
        plane = np.where((rows + cols) % 2 == 0, 235, 16).astype(np.uint8)
        planes = [plane] * spec.frames
    elif spec.pattern == "noise":
        rng = SplitMix64(spec.seed)
        for _ in range(spec.frames):
            noise = 128.0 + rng.normals(w * h, sigma=spec.sigma)
            plane = np.clip(np.rint(noise), 0, 255).astype(np.uint8)
            planes.append(plane.reshape(h, w))
    else:  # moving_gradient
        base = np.arange(h)[:, None] + np.arange(w)[None, :]
        for t in range(spec.frames):
            shift = int(round(spec.velocity * t)) % 256
            planes.append(((base + shift) % 256).astype(np.uint8))
    frames = tuple(LumaFrame(w, h, plane) for plane in planes)
    return VideoSequence(frames, Fraction(spec.framerate))
