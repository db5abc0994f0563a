import math
import mmap
import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import write_reference_y4m
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderforge.complexity import segment_features
from ladderforge.media import (
    MAX_SYNTHETIC_SAMPLES,
    InvalidSpec,
    LumaFrame,
    MalformedHeader,
    MediaError,
    SyntheticSpec,
    TrailingData,
    TruncatedFrame,
    UnsupportedColorspace,
    VideoSequence,
    ZeroFrames,
    generate_synthetic,
    parse_y4m,
    read_raw_luma,
    serialize_y4m,
)


def test_minimal_well_formed_stream():
    data = b"YUV4MPEG2 W2 H2 F30:1 C420\n" + b"FRAME\n" + bytes([10, 20, 30, 40]) + bytes([128, 128])
    seq = parse_y4m(data)
    assert len(seq) == 1
    assert (seq.width, seq.height) == (2, 2)
    assert seq.framerate == Fraction(30, 1)
    assert seq.frames[0].samples.tolist() == [[10, 20], [30, 40]]


def test_header_without_frames_is_zero_frames():
    with pytest.raises(ZeroFrames):
        parse_y4m(b"YUV4MPEG2 W2 H2 F30:1\n")


def test_missing_colorspace_defaults_to_420():
    data = b"YUV4MPEG2 W2 H2 F30:1\n" + b"FRAME\n" + bytes(4) + bytes(2)
    assert len(parse_y4m(data)) == 1


@pytest.mark.parametrize("colorspace", ["420", "420jpeg", "420mpeg2", "420paldv", "422", "444", "mono"])
def test_reference_writer_roundtrip_preserves_luma(colorspace):
    rng = np.random.default_rng(11)
    planes = [rng.integers(0, 256, (16, 16), dtype=np.uint8) for _ in range(3)]
    seq = parse_y4m(write_reference_y4m(planes, colorspace=colorspace))
    assert len(seq) == 3
    for plane, frame in zip(planes, seq.frames):
        assert np.array_equal(plane, frame.samples)


def test_independent_writer_large_420_roundtrip():
    rng = np.random.default_rng(5)
    planes = [rng.integers(0, 256, (64, 64), dtype=np.uint8) for _ in range(120)]
    seq = parse_y4m(write_reference_y4m(planes, colorspace="420", fps=(24, 1)))
    assert len(seq) == 120 and seq.framerate == Fraction(24)
    reparsed = parse_y4m(serialize_y4m(seq))
    assert reparsed == seq
    for plane, frame in zip(planes, reparsed.frames):
        assert plane.tobytes() == frame.tobytes()


def test_interlace_and_aspect_tags_ignored():
    rng = np.random.default_rng(3)
    planes = [rng.integers(0, 256, (8, 8), dtype=np.uint8)]
    data = write_reference_y4m(planes, colorspace="422", extra_tags=" Ip A1:1 Xcomment")
    assert len(parse_y4m(data)) == 1


def test_odd_dimensions_accepted():
    planes = [np.arange(15, dtype=np.uint8).reshape(5, 3)]
    seq = parse_y4m(write_reference_y4m(planes, colorspace="420"))
    assert (seq.width, seq.height) == (3, 5)
    assert np.array_equal(seq.frames[0].samples, planes[0])


def test_frame_parameters_accepted():
    data = b"YUV4MPEG2 W2 H1 F25:1 Cmono\n" + b"FRAME Ixyz\n" + bytes([1, 2])
    seq = parse_y4m(data)
    assert seq.frames[0].samples.tolist() == [[1, 2]]


@pytest.mark.parametrize(
    "blob,error",
    [
        (b"YUV4MPG2 W2 H2 F30:1\nFRAME\n" + bytes(6), MalformedHeader),
        (b"YUV4MPEG2 H2 F30:1\nFRAME\n" + bytes(6), MalformedHeader),
        (b"YUV4MPEG2 W2 H2 F30:1 C420p10\nFRAME\n" + bytes(12), UnsupportedColorspace),
        (b"YUV4MPEG2 W2 H2 F30:1 C420\nFRAME\n" + bytes(3), TruncatedFrame),
        (b"YUV4MPEG2 W2 H2 F0:1\nFRAME\n" + bytes(6), MalformedHeader),
        (b"YUV4MPEG2 W2 H2 F30:0\nFRAME\n" + bytes(6), MalformedHeader),
        (b"YUV4MPEG2 W-2 H2 F30:1\nFRAME\n" + bytes(6), MalformedHeader),
        (b"YUV4MPEG2 W2 H2", MalformedHeader),
        (b"YUV4MPEG2 W2 H2 F30:1 C444alpha\n", UnsupportedColorspace),
    ],
)
def test_malformed_streams_rejected(blob, error):
    with pytest.raises(error):
        parse_y4m(blob)


def test_trailing_garbage_detected():
    good = b"YUV4MPEG2 W2 H2 F30:1 Cmono\n" + b"FRAME\n" + bytes(4)
    assert len(parse_y4m(good)) == 1
    with pytest.raises(TrailingData, match="4 unparseable byte"):
        parse_y4m(good + b"junk")


def test_truncated_frame_header_is_truncated_frame():
    with pytest.raises(TruncatedFrame):
        parse_y4m(b"YUV4MPEG2 W2 H2 F30:1 Cmono\nFRAME")


def test_roundtrip_identity_via_own_serializer():
    spec = SyntheticSpec(12, 7, 4, Fraction(30000, 1001), "noise", seed=9, sigma=30.0)
    seq = generate_synthetic(spec)
    assert parse_y4m(serialize_y4m(seq)) == seq


def test_read_raw_luma():
    frames = np.arange(24, dtype=np.uint8)
    seq = read_raw_luma(frames.tobytes(), 4, 3, 25)
    assert len(seq) == 2
    assert seq.frames[1].samples.tolist()[0] == [12, 13, 14, 15]
    with pytest.raises(TruncatedFrame):
        read_raw_luma(bytes(13), 4, 3, 25)
    with pytest.raises(ZeroFrames):
        read_raw_luma(b"", 4, 3, 25)


def test_constant_pattern():
    seq = generate_synthetic(SyntheticSpec(6, 4, 2, 30, "constant", level=128))
    for frame in seq.frames:
        assert (frame.samples == 128).all()


def test_noise_is_deterministic_for_seed():
    spec = SyntheticSpec(16, 16, 5, 30, "noise", seed=42, sigma=20.0)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    assert a == b
    c = generate_synthetic(SyntheticSpec(16, 16, 5, 30, "noise", seed=43, sigma=20.0))
    assert a != c


def test_checkerboard_matches_pattern_formula():
    seq = generate_synthetic(SyntheticSpec(32, 32, 1, 30, "checkerboard", period=8))
    plane = seq.frames[0].samples
    for i in range(32):
        for j in range(32):
            expected = 235 if (i // 8 + j // 8) % 2 == 0 else 16
            assert plane[i, j] == expected


def test_moving_gradient_moves():
    seq = generate_synthetic(SyntheticSpec(16, 16, 3, 30, "moving_gradient", velocity=2.0))
    assert not np.array_equal(seq.frames[0].samples, seq.frames[1].samples)
    # frame t is frame 0 shifted by round(velocity * t)
    assert np.array_equal(
        (seq.frames[0].samples.astype(int) + 4) % 256, seq.frames[2].samples
    )


@pytest.mark.parametrize("velocity, frames", [(1e308, 2), (1e19, 3), (-1e19, 3), (2.5, 4)])
def test_moving_gradient_shift_wraps_without_overflow(velocity, frames):
    seq = generate_synthetic(SyntheticSpec(4, 4, frames, 30, "moving_gradient", velocity=velocity))
    for t, frame in enumerate(seq.frames):
        shift = int(round(velocity * t))  # a Python int, exact at any size
        expected = [[(i + j + shift) % 256 for j in range(4)] for i in range(4)]
        assert frame.samples.tolist() == expected


def test_checkerboard_period_beyond_the_frame_is_one_tile():
    huge = generate_synthetic(SyntheticSpec(4, 6, 1, 30, "checkerboard", period=10**23))
    assert (huge.frames[0].samples == 235).all()
    assert huge == generate_synthetic(SyntheticSpec(4, 6, 1, 30, "checkerboard", period=6))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(width=0, height=4, frames=1),
        dict(width=4, height=4, frames=0),
        dict(width=4, height=4, frames=1, pattern="plasma"),
        dict(width=4, height=4, frames=1, level=300),
        dict(width=4, height=4, frames=1, sigma=-1.0),
        dict(width=4, height=4, frames=1, sigma=math.nan),
        dict(width=4, height=4, frames=1, velocity=math.nan),
        dict(width=4, height=4, frames=1, velocity=math.inf),
        dict(width=4, height=4, frames=3, velocity=1e308),  # the last shift, 2e308, is inf
    ],
)
def test_invalid_synthetic_specs(kwargs):
    with pytest.raises(InvalidSpec):
        generate_synthetic(SyntheticSpec(**{"framerate": 30, "pattern": "constant", **kwargs}))


def test_synthetic_specs_hold_at_most_two_to_the_31_samples():
    # Specs only: none of these is generated.
    spec = SyntheticSpec(65536, 32768, 1)  # exactly the cap
    assert spec.width * spec.height * spec.frames == MAX_SYNTHETIC_SAMPLES == 2**31
    for width, height, frames in ((65536, 32768, 2), (65537, 32768, 1), (99999999, 99999999, 1)):
        with pytest.raises(InvalidSpec, match=f"^sample count must be at most 2147483648, "
                                              f"got {width}x{height}x{frames}$"):
            SyntheticSpec(width, height, frames)


def test_luma_frame_validation():
    with pytest.raises(ValueError):
        LumaFrame(2, 2, np.zeros((2, 3), dtype=np.uint8))
    with pytest.raises(ValueError):
        LumaFrame(2, 2, np.array([[0, 1], [2, 300]]))
    frame = LumaFrame(2, 2, np.array([1, 2, 3, 4], dtype=np.uint8))
    assert frame.samples.shape == (2, 2)
    with pytest.raises(ValueError):
        frame.samples[0, 0] = 9  # read-only after construction


def test_sequence_requires_uniform_dimensions():
    a = LumaFrame(2, 2, np.zeros((2, 2), dtype=np.uint8))
    b = LumaFrame(3, 2, np.zeros((2, 3), dtype=np.uint8))
    with pytest.raises(ValueError):
        VideoSequence((a, b), Fraction(30))
    seq = VideoSequence((a, a), Fraction(30))
    assert seq.duration == pytest.approx(2 / 30)


# Extra header tags, and a stream of raw bytes and frames whose planes fit
# some colorspaces and not others, so arbitrary data also reaches the frame
# loop, not only the header checks.
_Y4M_TAGS = st.lists(st.sampled_from([b" Cmono", b" C444", b" C420p10", b" Ip", b" W0"]),
                     max_size=2).map(b"".join)


@settings(max_examples=150, deadline=None)
@given(
    free=st.binary(max_size=200),
    width=st.integers(1, 4),
    height=st.integers(1, 4),
    rate=st.tuples(st.integers(1, 60), st.integers(1, 2)),
    tags=_Y4M_TAGS,
    data=st.data(),
)
def test_parse_y4m_returns_a_sequence_or_raises_media_error(free, width, height, rate, tags, data):
    header = b"YUV4MPEG2 W%d H%d F%d:%d" % (width, height, *rate)
    plane = bytes(range(width * height))
    frames = [b"FRAME\n" + plane, b"FRAME Ixyz\n" + plane * 3, b"FRAMEX\n", b"FRAME"]
    piece = st.one_of(st.binary(max_size=8), st.sampled_from(frames))
    stream = data.draw(st.lists(piece, min_size=1, max_size=6).map(b"".join))
    with tempfile.TemporaryDirectory() as directory:
        for i, blob in enumerate((free, header + free, header + tags + b"\n" + stream)):
            outcome = _parse_outcome(blob)
            assert isinstance(outcome, VideoSequence) or issubclass(outcome, MediaError)
            if blob:  # an empty file cannot be mapped
                assert _parse_outcome(_map_bytes(blob, Path(directory) / f"{i}.y4m")) == outcome


def _parse_outcome(stream):
    """The parsed sequence, or the class of the MediaError raised."""
    try:
        return parse_y4m(stream)
    except MediaError as exc:
        return type(exc)


def _map_bytes(blob: bytes, path: Path) -> mmap.mmap:
    path.write_bytes(blob)
    with open(path, "rb") as handle:
        return mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)


@pytest.mark.parametrize("colorspace", ["420", "mono"])
def test_parsers_read_a_map_in_place_like_bytes(tmp_path, colorspace):
    rng = np.random.default_rng(21)
    planes = [rng.integers(0, 256, (48, 100), dtype=np.uint8) for _ in range(5)]
    blob = write_reference_y4m(planes, colorspace=colorspace)
    mapped = parse_y4m(_map_bytes(blob, tmp_path / "clip.y4m"))
    assert mapped == parse_y4m(blob) == parse_y4m(bytearray(blob))
    assert not any(frame.samples.flags.owndata for frame in mapped.frames)  # views, not copies
    raw = b"".join(plane.tobytes() for plane in planes)
    mapped = read_raw_luma(_map_bytes(raw, tmp_path / "clip.yuv"), 100, 48, 30)
    assert mapped == read_raw_luma(raw, 100, 48, 30)
    assert not any(frame.samples.flags.owndata for frame in mapped.frames)


def test_a_mapped_sequence_reads_the_same_after_its_pages_are_released(tmp_path):
    rng = np.random.default_rng(22)
    planes = [rng.integers(0, 256, (96, 160), dtype=np.uint8) for _ in range(6)]  # ~4 pages each
    blob = write_reference_y4m(planes)
    seq = parse_y4m(_map_bytes(blob, tmp_path / "clip.y4m"))
    expected = segment_features(parse_y4m(blob), block_size=16)
    for _ in range(2):  # each pass releases every frame it moves past
        assert [frame.tobytes() for frame in seq] == [plane.tobytes() for plane in planes]
        assert segment_features(seq, block_size=16) == expected


def test_a_stream_without_the_magic_is_refused_before_the_header_is_searched():
    # No LF anywhere: the magic check, not a scan for the header's end, refuses it.
    with pytest.raises(MalformedHeader, match="does not start with YUV4MPEG2"):
        parse_y4m(b"\x00\x00\x00\x18ftypmp42" + bytes(64))
