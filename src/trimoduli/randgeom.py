"""Monte Carlo baselines: uniform random triangles in the unit square.

Vertices are drawn uniformly from [0,1]^2.  Exactly collinear draws (a
measure-zero event that double precision can still produce) are resampled
from the same stream, so every retained triangle is non-degenerate.

Estimates come with the exact references they are checked against:

* P(obtuse) for three uniform points in a square: 97/150 + pi/40
* mean distance of two uniform points: (2 + sqrt 2 + 5 asinh 1)/15

Sampling runs in fixed blocks with per-block streams (see rng) on the
threads of parallel.map_ordered; one fold sums the block results in
block-index order, so estimates are bit-identical for any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import check_int_range, check_real
from .moduli import HALF_PAIRS, MAX_BINS, normalized_sides, shape_grid
from .parallel import map_ordered, worker_count
from .rng import BLOCK_SAMPLES, MAX_SAMPLES, block_generator, block_sizes, check_seed

OBTUSE_MARGIN = 1e-15  # squared-length slack; ties count as not obtuse

MIN_SAMPLES = 1000


def langford_obtuse_probability() -> float:
    """Exact probability that three uniform points in a square form an
    obtuse triangle: 97/150 + pi/40."""
    return 97.0 / 150.0 + math.pi / 40.0


def unit_square_mean_distance() -> float:
    """Exact mean distance of two uniform points in the unit square:
    (2 + sqrt 2 + 5 asinh 1)/15."""
    return (2.0 + math.sqrt(2.0) + 5.0 * math.asinh(1.0)) / 15.0


@dataclass(frozen=True, slots=True)
class McEstimate:
    """A Monte Carlo estimate with its standard error: a finite mean, a
    finite std_error >= 0, 1 <= samples <= MAX_SAMPLES and a 64-bit seed
    (GuardError otherwise)."""

    mean: float
    std_error: float
    samples: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "mean", check_real(self.mean, "mean"))
        object.__setattr__(self, "std_error", check_real(self.std_error, "std_error", 0.0))
        samples = check_int_range(self.samples, "samples", 1, MAX_SAMPLES)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "seed", check_seed(self.seed))


@dataclass(eq=False)
class Histogram2D:
    """Binned mass of sampled shapes on the ab-plane region.

    counts is the moduli.shape_grid of the projections, ix from the first
    coordinate: the helper that also builds the census orbit grid of
    analysis.orbit_bin_masses.  In labeled mode every sample contributes
    its 6 labeled projections, so counts is symmetric: each block bins the
    3 moduli.HALF_PAIRS projections into a half-grid H, and shape_histogram
    adds H^T once, after the blocks are summed.  In sorted mode every
    sample contributes just the moduli representative (smallest, middle).
    obtuse_count counts obtuse samples (not projections), in [0, samples],
    for consistency checks against the obtuse estimator.
    """

    counts: np.ndarray
    bin_count: int
    samples: int
    seed: int
    labeled: bool
    obtuse_count: int
    total: int = field(init=False)

    def __post_init__(self):
        if self.counts.shape != (self.bin_count, self.bin_count):
            raise ValueError("counts grid does not match bin_count")
        self.obtuse_count = check_int_range(
            self.obtuse_count, "obtuse_count", 0, self.samples
        )
        self.total = int(self.counts.sum())
        expected = self.samples * (6 if self.labeled else 1)
        if self.total != expected:
            raise ValueError(
                f"histogram holds {self.total} points, expected {expected}"
            )
        if self.labeled and not np.array_equal(self.counts, self.counts.T):
            raise ValueError("labeled counts must be symmetric")


def _triangle_uniforms(gen: np.random.Generator, count: int) -> np.ndarray:
    """(count, 6) uniforms (ax, ay, bx, by, cx, cy) with exactly collinear
    rows resampled from the same stream."""
    u = gen.random((count, 6))
    while True:
        cx = (u[:, 2] - u[:, 0]) * (u[:, 5] - u[:, 1]) - (u[:, 3] - u[:, 1]) * (
            u[:, 4] - u[:, 0]
        )
        bad = cx == 0.0
        n_bad = int(bad.sum())
        if n_bad == 0:
            return u
        u[bad] = gen.random((n_bad, 6))


def _squared_sides_cols(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    ab = (u[:, 2] - u[:, 0]) ** 2 + (u[:, 3] - u[:, 1]) ** 2
    bc = (u[:, 4] - u[:, 2]) ** 2 + (u[:, 5] - u[:, 3]) ** 2
    ca = (u[:, 0] - u[:, 4]) ** 2 + (u[:, 1] - u[:, 5]) ** 2
    return ab, bc, ca


def _obtuse_mask(ab: np.ndarray, bc: np.ndarray, ca: np.ndarray) -> np.ndarray:
    hi = np.maximum(np.maximum(ab, bc), ca)
    rest = ab + bc + ca - hi
    return hi > rest + OBTUSE_MARGIN


def _obtuse_block(seed: int, index: int, size: int) -> tuple[int]:
    gen = block_generator(seed, index)
    u = _triangle_uniforms(gen, size)
    return (int(np.count_nonzero(_obtuse_mask(*_squared_sides_cols(u)))),)


def _distance_block(seed: int, index: int, size: int) -> tuple[float, float]:
    gen = block_generator(seed, index)
    u = gen.random((size, 4))
    d = np.hypot(u[:, 2] - u[:, 0], u[:, 3] - u[:, 1])
    return (float(d.sum()), float(np.square(d).sum()))


def _check_mc_args(samples, seed) -> tuple[int, int]:
    samples = check_int_range(samples, "samples", MIN_SAMPLES, MAX_SAMPLES)
    return samples, check_seed(seed)


def _fold_blocks(block, samples: int, seed: int, *extra) -> list:
    """Sum the result tuples of block(seed, i, size, *extra) over
    block_sizes(samples) field by field, in block-index order, as they
    arrive; arrays are summed in place."""
    args = [(seed, i, size, *extra) for i, size in enumerate(block_sizes(samples))]
    results = map_ordered(block, args, worker_count())
    totals = list(next(results))
    for result in results:
        for k, value in enumerate(result):
            totals[k] += value
    return totals


def obtuse_probability(samples: int, seed: int) -> McEstimate:
    """Estimate P(obtuse) for uniform random triangles in the unit square."""
    samples, seed = _check_mc_args(samples, seed)
    (hits,) = _fold_blocks(_obtuse_block, samples, seed)
    mean = hits / samples
    se = math.sqrt(mean * (1.0 - mean) / samples)
    return McEstimate(mean=mean, std_error=se, samples=samples, seed=seed)


def mean_pair_distance(samples: int, seed: int) -> McEstimate:
    """Estimate the mean distance of two uniform points in the unit square."""
    samples, seed = _check_mc_args(samples, seed)
    total, total_sq = _fold_blocks(_distance_block, samples, seed)
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    se = math.sqrt(var / samples)
    return McEstimate(mean=mean, std_error=se, samples=samples, seed=seed)


def _histogram_block(
    seed: int, index: int, size: int, bins: int, labeled: bool
) -> tuple[np.ndarray, int]:
    """One block's shape grid and obtuse count.  In labeled mode the grid is
    the half-grid of the HALF_PAIRS projections, from the cells of each side
    binned once; shape_histogram folds the other half in at the end."""
    gen = block_generator(seed, index)
    u = _triangle_uniforms(gen, size)
    ab, bc, ca = _squared_sides_cols(u)
    obtuse = int(np.count_nonzero(_obtuse_mask(ab, bc, ca)))
    a, b, c = normalized_sides(ab, bc, ca)
    if labeled:
        return shape_grid((a, b, c), bins, HALF_PAIRS), obtuse
    # the smallest and the middle side, selected exactly as a sort would
    lo = np.minimum(np.minimum(a, b), c)
    mid = np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c))
    return shape_grid((lo, mid), bins), obtuse


def shape_histogram(
    samples: int, bins: int, seed: int, labeled: bool = True
) -> Histogram2D:
    """Histogram of sampled triangle shapes on the ab-plane."""
    samples = check_int_range(samples, "samples", 1, MAX_SAMPLES)
    bins = check_int_range(bins, "bins", 2, MAX_BINS)
    seed = check_seed(seed)
    grid, obtuse = _fold_blocks(_histogram_block, samples, seed, bins, labeled)
    if labeled:
        grid = grid + grid.T
    return Histogram2D(
        counts=grid,
        bin_count=bins,
        samples=samples,
        seed=seed,
        labeled=labeled,
        obtuse_count=obtuse,
    )
