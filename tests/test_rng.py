"""Stream keying and block determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trimoduli as tm
from trimoduli.rng import GOLDEN, MASK64, block_sizes


class TestSplitmix:
    def test_published_sequence_from_seed_zero(self):
        # outputs of the reference splitmix64 stream seeded with 0; the
        # k-th draw mixes state k * GOLDEN
        assert tm.splitmix64(0) == 0xE220A8397B1DCDAF
        assert tm.splitmix64(GOLDEN) == 0x6E789E6AA1B965F4
        assert tm.splitmix64((2 * GOLDEN) & MASK64) == 0x06C45D188009454F

    @given(st.integers(min_value=0, max_value=MASK64))
    @settings(max_examples=200)
    def test_stays_in_64_bits(self, z):
        out = tm.splitmix64(z)
        assert 0 <= out <= MASK64


class TestStreamKey:
    def test_deterministic(self):
        assert tm.stream_key(42, 0) == tm.stream_key(42, 0)

    def test_distinct_across_blocks_and_seeds(self):
        keys = {tm.stream_key(s, b) for s in range(8) for b in range(64)}
        assert len(keys) == 8 * 64

    def test_negative_block_rejected(self):
        with pytest.raises(ValueError):
            tm.stream_key(1, -1)

    @pytest.mark.parametrize("seed", [1.7, "3", True], ids=["float", "str", "bool"])
    @pytest.mark.parametrize("stream", [tm.stream_key, tm.block_generator])
    def test_seed_must_be_an_integer(self, stream, seed):
        # int() used to read these as seeds 1, 3 and 1
        with pytest.raises(tm.GuardError):
            stream(seed, 0)

    @pytest.mark.parametrize("stream", [tm.stream_key, tm.block_generator])
    def test_block_index_must_be_an_integer(self, stream):
        with pytest.raises(tm.GuardError):
            stream(1, 2.5)


class TestBlockGenerator:
    def test_same_block_same_draws(self):
        a = tm.block_generator(7, 3).random(16)
        b = tm.block_generator(7, 3).random(16)
        assert np.array_equal(a, b)

    def test_different_blocks_differ(self):
        a = tm.block_generator(7, 3).random(16)
        b = tm.block_generator(7, 4).random(16)
        assert not np.array_equal(a, b)


class TestBlockSizes:
    def test_exact_multiple(self):
        assert block_sizes(2 * tm.BLOCK_SAMPLES) == [tm.BLOCK_SAMPLES] * 2

    def test_remainder(self):
        assert block_sizes(tm.BLOCK_SAMPLES + 5) == [tm.BLOCK_SAMPLES, 5]

    def test_small(self):
        assert block_sizes(3) == [3]

    @given(st.integers(min_value=1, max_value=10 * tm.BLOCK_SAMPLES))
    @settings(max_examples=50)
    def test_partition(self, samples):
        sizes = block_sizes(samples)
        assert sum(sizes) == samples
        assert all(0 < s <= tm.BLOCK_SAMPLES for s in sizes)
        assert all(s == tm.BLOCK_SAMPLES for s in sizes[:-1])
