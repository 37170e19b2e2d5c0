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

A block draws all its uniforms at once.  Everything after the draw runs
over slices of SLICE_ROWS rows, whose 64 KB columns stay in cache, so a
block's temporaries are a few slice columns beside its uniforms: the
obtuse block peaks near 1.2 times its 3 MiB of uniforms, and a labeled
64-bin histogram block, whose coordinates are binned by one shape_grid
call once the uniforms are freed, near 2.2 times.  Small temporaries are
reused from the threads' malloc arenas instead of being faulted in anew:
a 1e7-sample shape_histogram takes about 2K minor page faults, where
whole-block temporaries took over 100K.  Sums and counts do not depend on
SLICE_ROWS: the obtuse hits are an integer count, and the distances are
summed as one array of the whole block.
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

# rows per pass over a block after its draw: a slice's float64 columns are
# 64 KB each, so the temporaries of a pass stay in cache
SLICE_ROWS = 1 << 13


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


def _collinear(v: np.ndarray) -> np.ndarray:
    """Rows of the (k, 6) uniforms v whose vertices are exactly collinear:
    the cross product (b - a) x (c - a) is zero, that is its two products
    are equal (with gradual underflow x - y == 0 only when x == y)."""
    return (v[:, 2] - v[:, 0]) * (v[:, 5] - v[:, 1]) == (v[:, 3] - v[:, 1]) * (
        v[:, 4] - v[:, 0]
    )


def _triangle_uniforms(gen: np.random.Generator, count: int) -> np.ndarray:
    """(count, 6) uniforms (ax, ay, bx, by, cx, cy) with exactly collinear
    rows resampled from the same stream, after the whole block is drawn and
    in ascending row order, until none is left."""
    u = gen.random((count, 6))
    bad = np.flatnonzero(
        np.concatenate(
            [_collinear(u[lo : lo + SLICE_ROWS]) for lo in range(0, count, SLICE_ROWS)]
        )
    )
    while bad.size:
        u[bad] = gen.random((bad.size, 6))
        bad = bad[_collinear(u[bad])]
    return u


def _slice_sides(u: np.ndarray):
    """Yield (rows, ab, bc, ca) for each SLICE_ROWS slice of the (count, 6)
    uniforms u: the slice and the squared sides of its triangles.  The
    sides are computed in place in buffers that the next slice reuses, so
    each must be consumed before the generator resumes."""
    buf = np.empty((6, min(SLICE_ROWS, len(u))))
    for lo in range(0, len(u), SLICE_ROWS):
        v = u[lo : lo + SLICE_ROWS]
        d = buf[:, : len(v)]
        # x and y of b - a, c - b and a - c
        for k, (i, j) in enumerate(((2, 0), (3, 1), (4, 2), (5, 3), (0, 4), (1, 5))):
            np.subtract(v[:, i], v[:, j], out=d[k])
        np.square(d, out=d)
        ab, bc, ca = np.add(d[0::2], d[1::2], out=d[0::2])
        yield slice(lo, lo + len(v)), ab, bc, ca


def _obtuse_mask(ab: np.ndarray, bc: np.ndarray, ca: np.ndarray) -> np.ndarray:
    # hi > ((ab + bc) + ca) - hi + OBTUSE_MARGIN, added in place in this order
    hi = np.maximum(ab, bc)
    np.maximum(hi, ca, out=hi)
    rest = ab + bc
    rest += ca
    rest -= hi
    rest += OBTUSE_MARGIN
    return hi > rest


def _obtuse_block(seed: int, index: int, size: int) -> tuple[int]:
    gen = block_generator(seed, index)
    u = _triangle_uniforms(gen, size)
    hits = sum(
        int(np.count_nonzero(_obtuse_mask(ab, bc, ca))) for _, ab, bc, ca in _slice_sides(u)
    )
    return (hits,)


def _distance_block(seed: int, index: int, size: int) -> tuple[float, float]:
    """The sum of the block's distances and of their squares, each summed
    over the whole block, so the order of numpy's pairwise sum is that of
    one array of size distances."""
    gen = block_generator(seed, index)
    u = gen.random((size, 4))
    d = np.empty(size)
    for lo in range(0, size, SLICE_ROWS):
        v = u[lo : lo + SLICE_ROWS]
        np.hypot(v[:, 2] - v[:, 0], v[:, 3] - v[:, 1], out=d[lo : lo + len(v)])
    total = float(d.sum())
    return (total, float(np.square(d, out=d).sum()))


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
    """One block's shape grid and obtuse count.  The slices fill the
    coordinates of every sample, which one shape_grid call bins once the
    uniforms are freed.  In labeled mode the grid is the half-grid of the
    HALF_PAIRS projections, from the cells of each side binned once;
    shape_histogram folds the other half in at the end."""
    gen = block_generator(seed, index)
    u = _triangle_uniforms(gen, size)
    coords = np.empty((3 if labeled else 2, size))
    obtuse = 0
    for rows, ab, bc, ca in _slice_sides(u):
        obtuse += int(np.count_nonzero(_obtuse_mask(ab, bc, ca)))
        a, b, c = normalized_sides(ab, bc, ca)
        if labeled:
            coords[0, rows], coords[1, rows], coords[2, rows] = a, b, c
        else:
            # the smallest and the middle side, selected exactly as a sort would
            lo, mid = coords[:, rows]
            np.minimum(np.minimum(a, b, out=lo), c, out=lo)
            np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c), out=mid)
    del u
    if labeled:
        return shape_grid(coords, bins, HALF_PAIRS), obtuse
    return shape_grid(coords, bins), obtuse


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
