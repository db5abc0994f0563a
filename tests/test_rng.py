import numpy as np
import pytest

from ladderforge.rng import SplitMix64, blocks, partial_shuffle


def test_known_reference_outputs():
    # Canonical splitmix64 stream for seed 0; pinning these locks the
    # portable-generator contract the model format depends on.
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_seed_is_masked_to_64_bits():
    assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()
    assert SplitMix64(-1).next_u64() == SplitMix64((1 << 64) - 1).next_u64()


def test_vectorised_draws_equal_scalar_stream():
    a, b = SplitMix64(77), SplitMix64(77)
    block = a.integers_below(1000, 64)
    scalars = [b.below(1000) for _ in range(64)]
    assert block.tolist() == scalars
    # both streams advanced identically
    assert a.next_u64() == b.next_u64()


def test_raw_block_equals_next_u64_calls_and_advances_the_stream_as_far():
    a, b = SplitMix64(123), SplitMix64(123)
    for count in (0, 1, 7):
        block = a.block(count)
        assert block.dtype == np.uint64
        assert block.tolist() == [b.next_u64() for _ in range(count)]
    assert a.next_u64() == b.next_u64()


def test_blocks_of_several_streams_are_each_streams_block():
    seeds = [0, 2**64 - 1, 77, 77]
    states = np.array(seeds, np.uint64)
    streams = [SplitMix64(seed) for seed in seeds]
    for counts in ([3, 0, 5, 1], [0, 0, 0, 0], [2, 9, 0, 4]):
        draws = blocks(states, np.array(counts))
        assert draws.dtype == np.uint64
        assert draws.tolist() == [u for stream, count in zip(streams, counts) for u in stream.block(count).tolist()]
    # each state advanced as far as its stream
    assert [int(state) for state in states] == [stream._state for stream in streams]


def test_subset_is_partial_shuffle_of_its_below_draws():
    a, b = SplitMix64(31), SplitMix64(31)
    for k in range(6):
        assert a.subset(k, 5) == partial_shuffle([b.below(5 - i) for i in range(k)], 5)
    # slot 0 swaps with 4: [4, 1, 2, 3, 0]; slot 1 with itself; slot 2 with 4: [4, 1, 0, 3, 2]
    assert partial_shuffle([4, 0, 2], 5) == [4, 1, 0]


def test_uniforms_range_and_stream_position():
    a, b = SplitMix64(5), SplitMix64(5)
    u = a.uniforms(101)
    assert ((0.0 <= u) & (u < 1.0)).all()
    for _ in range(101):
        b.next_u64()
    assert a.next_u64() == b.next_u64()


def test_normals_consume_even_number_of_draws():
    a, b = SplitMix64(9), SplitMix64(9)
    z = a.normals(5, sigma=2.0)
    assert z.shape == (5,)
    for _ in range(6):  # 2 * ceil(5/2)
        b.next_u64()
    assert a.next_u64() == b.next_u64()
    assert abs(float(SplitMix64(3).normals(20000).mean())) < 0.05


def test_permutation_and_subset():
    rng = SplitMix64(4)
    perm = rng.permutation(10)
    assert sorted(perm) == list(range(10))
    assert SplitMix64(4).permutation(10) == perm
    sub = SplitMix64(8).subset(3, 5)
    assert len(set(sub)) == 3 and all(0 <= i < 5 for i in sub)
    with pytest.raises(ValueError):
        SplitMix64(0).subset(6, 5)
    with pytest.raises(ValueError):
        SplitMix64(0).below(0)


def test_streams_differ_by_seed():
    assert SplitMix64(1).uniforms(8).tolist() != SplitMix64(2).uniforms(8).tolist()
    assert not np.array_equal(SplitMix64(1).normals(8), SplitMix64(2).normals(8))
