"""Deterministic random streams for the samplers.

Samples are drawn in fixed blocks of BLOCK_SAMPLES.  Block i of a run with
seed s uses a counter-based Philox generator keyed by

    stream_key(s, i) = splitmix64(splitmix64(s) ^ splitmix64(0x9E3779B97F4A7C15 + i))

splitmix64 is the standard 64-bit finalizer (constants 0x9E3779B97F4A7C15,
0xBF58476D1CE4E5B9, 0x94D049BB133111EB).  Keys for distinct (seed, block)
pairs are decorrelated, every block is independent of every other, and the
reduction over blocks happens in block-index order, so results do not
depend on how many workers ran the blocks or on the platform.
"""

from __future__ import annotations

import sys

import numpy as np

from .errors import check_int_range

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB

BLOCK_SAMPLES = 1 << 16
# 2^20 block arguments fit in memory; 2^36 obtuse_probability samples take an hour
MAX_SAMPLES = BLOCK_SAMPLES << 20


def splitmix64(z: int) -> int:
    """One splitmix64 finalizer step on a 64-bit state."""
    z = (z + GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    return z ^ (z >> 31)


def check_seed(seed) -> int:
    """Any signed or unsigned 64-bit integer; stream_key keeps its low 64 bits."""
    return check_int_range(seed, "seed", -(1 << 63), MASK64)


def stream_key(seed: int, block_index: int) -> int:
    """64-bit Philox key for one (seed, block) pair."""
    s = splitmix64(check_seed(seed) & MASK64)
    block_index = check_int_range(block_index, "block_index", 0, sys.maxsize)
    b = splitmix64((GOLDEN + block_index) & MASK64)
    return splitmix64(s ^ b)


def block_generator(seed: int, block_index: int) -> np.random.Generator:
    """Generator for one sample block; independent across blocks."""
    return np.random.Generator(np.random.Philox(key=stream_key(seed, block_index)))


def block_sizes(samples: int) -> list[int]:
    """Sizes of the fixed sample blocks covering a run of `samples`."""
    full, rem = divmod(samples, BLOCK_SAMPLES)
    sizes = [BLOCK_SAMPLES] * full
    if rem:
        sizes.append(rem)
    return sizes
