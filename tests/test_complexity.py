import tracemalloc

import numpy as np
import pytest
from conftest import block_energy_direct, dct2_direct, frame_energy_direct

from ladderforge.complexity import (
    BlockSizeMismatch,
    ComplexityError,
    DimensionMismatch,
    EmptySequence,
    SegmentFeatures,
    _ac_weights,
    _block_energies,
    _dct_basis,
    _frame_stats,
    block_texture_energy,
    frame_complexity,
    read_features_csv,
    segment_features,
    write_features_csv,
)
from ladderforge.media import SyntheticSpec, generate_synthetic


def test_constant_tile_has_zero_energy():
    assert block_texture_energy(np.full((32, 32), 128)) == 0.0
    assert block_texture_energy(np.zeros((16, 16))) == 0.0


def test_delta_block_matches_direct_oracle():
    tile = np.zeros((4, 4))
    tile[0, 0] = 1.0
    expected = block_energy_direct(tile)
    assert block_texture_energy(tile, block_size=4) == pytest.approx(expected, abs=1e-12)
    assert expected > 0


def test_polarity_flip_preserves_energy():
    rng = np.random.default_rng(2)
    tile = rng.integers(0, 256, (32, 32)).astype(np.float64)
    assert block_texture_energy(tile) == pytest.approx(
        block_texture_energy(255.0 - tile), abs=1e-9
    )


def test_random_blocks_match_direct_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        tile = rng.integers(0, 256, (16, 16)).astype(np.float64)
        assert block_texture_energy(tile) == pytest.approx(
            block_energy_direct(tile), abs=1e-9
        )


def test_fast_dct_matches_direct_definition_per_coefficient():
    rng = np.random.default_rng(4)
    for size in (8, 32):
        tile = rng.uniform(0, 255, (size, size))
        basis = _dct_basis(size)
        fast = basis @ tile @ basis.T
        assert np.max(np.abs(fast - dct2_direct(tile))) < 1e-9


def test_block_size_mismatch():
    with pytest.raises(BlockSizeMismatch):
        block_texture_energy(np.zeros((8, 16)))
    with pytest.raises(BlockSizeMismatch):
        block_texture_energy(np.zeros((8, 8)), block_size=16)


def test_identical_frames_have_zero_gradient():
    rng = np.random.default_rng(3)
    plane = rng.integers(0, 256, (64, 48)).astype(np.uint8)
    fc = frame_complexity(plane, plane)
    assert fc.temporal_gradient == 0.0
    assert fc.texture_energy > 0


def test_constant_frame_values():
    fc = frame_complexity(np.full((64, 64), 200, dtype=np.uint8))
    assert fc.texture_energy == 0.0
    assert fc.temporal_gradient == 0.0
    assert fc.brightness == 200.0


def test_constant_frame_with_unaligned_dims_scores_padding_edge():
    # Zero-padding the border tiles of a non-multiple-of-w frame creates a
    # step edge, so only block-aligned constant frames score exactly zero.
    fc = frame_complexity(np.full((40, 40), 200, dtype=np.uint8))
    assert fc.texture_energy > 0
    assert fc.brightness == 200.0


def test_noise_frames_match_brute_force_oracle():
    seq = generate_synthetic(SyntheticSpec(32, 32, 2, 30, "noise", seed=12, sigma=25.0))
    cur = seq.frames[1].samples.astype(np.float64)
    prev = seq.frames[0].samples.astype(np.float64)
    fc = frame_complexity(cur, prev, block_size=32)
    cur_e, cur_frame = frame_energy_direct(cur, 32)
    prev_e, _ = frame_energy_direct(prev, 32)
    denom = len(cur_e) * 32 * 32
    gradient = sum(abs(a - b) for a, b in zip(cur_e, prev_e)) / denom
    assert fc.texture_energy == pytest.approx(cur_frame, rel=1e-12)
    assert fc.temporal_gradient == pytest.approx(gradient, rel=1e-12)
    assert fc.brightness == pytest.approx(cur.mean(), rel=1e-12)


def test_border_blocks_are_zero_padded():
    rng = np.random.default_rng(9)
    plane = rng.integers(0, 256, (20, 36)).astype(np.float64)
    fc = frame_complexity(plane, block_size=16)
    energies, expected = frame_energy_direct(plane, 16)
    assert len(energies) == 2 * 3
    assert fc.texture_energy == pytest.approx(expected, rel=1e-12)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        frame_complexity(np.zeros((8, 8)), np.zeros((8, 9)))


def test_single_frame_constant_segment():
    seq = generate_synthetic(SyntheticSpec(32, 32, 1, 30, "constant", level=77))
    features = segment_features(seq)
    assert features == SegmentFeatures(0.0, 0.0, 77.0)


def test_static_noise_content_has_zero_gradient():
    frame = generate_synthetic(
        SyntheticSpec(32, 32, 1, 30, "noise", seed=5, sigma=30.0)
    ).frames[0]
    features = segment_features([frame.samples, frame.samples])
    assert features.temporal_gradient == 0.0
    assert features.texture_energy > 0


def test_moving_gradient_segment_matches_recomputation():
    seq = generate_synthetic(SyntheticSpec(32, 32, 10, 30, "moving_gradient", velocity=3.0))
    features = segment_features(seq, block_size=32)
    planes = [f.samples.astype(np.float64) for f in seq.frames]
    per_frame = [frame_energy_direct(p, 32) for p in planes]
    textures = [frame for _, frame in per_frame]
    denom = len(per_frame[0][0]) * 32 * 32
    gradients = [
        sum(abs(a - b) for a, b in zip(cur, prev)) / denom
        for (prev, _), (cur, _) in zip(per_frame, per_frame[1:])
    ]
    brightness = [p.mean() for p in planes]
    assert features.texture_energy == pytest.approx(np.mean(textures), rel=1e-12)
    assert features.temporal_gradient == pytest.approx(np.mean(gradients), rel=1e-12)
    assert features.brightness == pytest.approx(np.mean(brightness), rel=1e-12)


def test_luma_scaling_scales_energy_and_brightness():
    rng = np.random.default_rng(21)
    plane = rng.uniform(0, 255, (64, 64))
    base = frame_complexity(plane)
    for s in (0.25, 0.5, 0.9, 1.0):
        scaled = frame_complexity(s * plane)
        assert scaled.texture_energy == pytest.approx(s * base.texture_energy, rel=1e-9)
        assert scaled.brightness == pytest.approx(s * base.brightness, rel=1e-12)


def test_block_shuffle_leaves_texture_energy_unchanged():
    rng = np.random.default_rng(31)
    plane = rng.integers(0, 256, (64, 64)).astype(np.float64)
    blocks = [
        plane[32 * i: 32 * (i + 1), 32 * j: 32 * (j + 1)] for i in range(2) for j in range(2)
    ]
    order = [2, 0, 3, 1]
    shuffled = np.block([[blocks[order[0]], blocks[order[1]]], [blocks[order[2]], blocks[order[3]]]])
    assert frame_complexity(plane).texture_energy == pytest.approx(
        frame_complexity(shuffled).texture_energy, rel=1e-12
    )


def test_gradient_mean_is_reversal_invariant():
    seq = generate_synthetic(SyntheticSpec(32, 32, 6, 30, "noise", seed=8, sigma=15.0))
    planes = [f.samples for f in seq.frames]
    forward = segment_features(planes)
    backward = segment_features(planes[::-1])
    assert forward.temporal_gradient == pytest.approx(backward.temporal_gradient, rel=1e-12)
    assert forward.texture_energy == pytest.approx(backward.texture_energy, rel=1e-12)


def test_empty_sequence_rejected():
    with pytest.raises(EmptySequence):
        segment_features([])


def test_features_csv_roundtrip(tmp_path):
    rows = [
        ("seg_a", SegmentFeatures(1.25, 0.5, 128.0)),
        ("seg_b", SegmentFeatures(0.0, 0.0, 16.125)),
    ]
    path = tmp_path / "features.csv"
    with open(path, "w") as handle:
        write_features_csv(rows, handle, comment="config {}")
    with open(path) as handle:
        parsed = read_features_csv(handle)
    assert parsed == rows
    text = path.read_text()
    assert text.startswith("# config {}\n")
    assert "segment_id,E_Y,h,L_Y" in text


def test_features_csv_rejects_bad_header_and_duplicates():
    with pytest.raises(ComplexityError):
        read_features_csv("segment,E_Y,h,L_Y\n")
    with pytest.raises(ComplexityError):
        read_features_csv("segment_id,E_Y,h,L_Y\na,1,1,1\na,2,2,2\n")


def _one_shot_energies(plane, block_size):
    """Reference: zero-pad the whole plane and transform all its blocks in one batch."""
    plane = np.asarray(plane, dtype=np.float64)
    h, w = plane.shape
    by, bx = -(-h // block_size), -(-w // block_size)
    padded = np.zeros((by * block_size, bx * block_size))
    padded[:h, :w] = plane
    blocks = (
        padded.reshape(by, block_size, bx, block_size)
        .swapaxes(1, 2)
        .reshape(by * bx, block_size, block_size)
    )
    blocks = blocks - blocks.mean(axis=(1, 2), keepdims=True)
    basis = _dct_basis(block_size)
    return np.einsum("kij,ij->k", np.abs(basis @ blocks @ basis.T), _ac_weights(block_size))


def _one_shot_stats(planes, block_size):
    out, prev = [], None
    for plane in planes:
        energies = _one_shot_energies(plane, block_size)
        denom = energies.size * block_size * block_size
        gradient = 0.0 if prev is None else float(np.sum(np.abs(energies - prev)) / denom)
        out.append((float(energies.sum() / denom), gradient,
                    float(np.asarray(plane, dtype=np.float64).mean())))
        prev = energies
    return out


def _plane_shapes():
    for size in (4, 8, 16, 32, 64):
        for h, w in [
            (2 * size, 3 * size),  # whole blocks
            (2 * size + 1, 3 * size - 1),  # partial right and bottom blocks
            (size - 1, max(size // 2, 1)),  # smaller than one block
            (3 * size + 1, size - 1),  # one column of blocks, each partial
            (2 * size - 3, 257 * size + 5),  # wider than 256 blocks
        ]:
            yield pytest.param(size, h, w, id=f"w{size}-{h}x{w}")


@pytest.mark.parametrize("block_size, h, w", _plane_shapes())
def test_block_rows_match_the_one_shot_transform(block_size, h, w):
    rng = np.random.default_rng(h * 1000 + w)
    planes = rng.integers(0, 256, (2, h, w), dtype=np.uint8)
    expected = _one_shot_stats(planes, block_size)
    # Integer-valued samples sum exactly in any order: the bytes must agree.
    for plane in (planes[0], planes[0].astype(np.float64)):
        assert _block_energies(plane, block_size).tobytes() == (
            _one_shot_energies(plane, block_size).tobytes())
    assert list(_frame_stats(planes, block_size)) == expected
    assert list(_frame_stats(list(planes.astype(np.float64)), block_size)) == expected
    # Fractional samples: numpy's block means may sum in another order.
    fractional = rng.uniform(0, 255, (2, h, w))
    np.testing.assert_allclose(_block_energies(fractional[0], block_size),
                               _one_shot_energies(fractional[0], block_size), rtol=1e-12, atol=0)
    np.testing.assert_allclose(list(_frame_stats(fractional, block_size)),
                               _one_shot_stats(fractional, block_size), rtol=1e-12, atol=0)


def test_uhd_frames_never_hold_a_frame_sized_float_copy():
    # A 2160p float64 plane alone is 63 MiB; the one-shot transform peaked
    # at about 318 MiB over these two frames.
    frames = np.random.default_rng(5).integers(0, 256, (2, 2160, 3840), dtype=np.uint8)
    tracemalloc.start()
    try:
        list(_frame_stats(frames, 32))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
