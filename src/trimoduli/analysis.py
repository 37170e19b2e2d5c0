"""Census analysis: obtuse fractions, equidistribution gap, and the total
variation distance between a census and the uniform shape measure.

The headline comparison puts three measures side by side per grid size n:

* the weighted census fraction of obtuse triangles in [-n, n]^2,
* the uniform-measure mass of the obtuse region, 9 - 12 ln 2 ~ 0.6822,
* the random-triangle baseline 97/150 + pi/40 ~ 0.7252.

The census tracking the random-triangle value rather than the uniform one
is the non-equidistribution phenomenon; compare_to_uniform quantifies it
in total variation over a bin grid.  The census, sampled and uniform
grids share one mesh and one orbit order: moduli.shape_grid bins each side
once and counts the moduli.LABELED_PAIRS cells (the sampler's labeled
blocks count the HALF_PAIRS half of them).

obtuse_curve, obtuse_point and equidist_report build no census: their
counts for every n up to n_max come from one pass over the box heights,
enumeration.obtuse_counts, whose weights are closed forms in per-height
orbit moments and whose distinct counts come from each class's first
box height.  Every point equals curve_point_from_set of its own census.
Points derive their fractions, and reports their gaps, on construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .enumeration import MAX_N, obtuse_counts
from .errors import GuardError, check_int_range, check_real
from .moduli import (
    LABELED_PAIRS,
    MAX_BINS,
    ModuliRegion,
    WeightedShapeSet,
    exact_sum,
    normalized_sides,
    shape_grid,
    uniform_bin_masses,
    uniform_target,
)
from .randgeom import langford_obtuse_probability


@dataclass(frozen=True, slots=True)
class ObtuseCurvePoint:
    """Obtuse fractions of one census, derived from its counts."""

    n: int
    weighted_fraction: float = field(init=False)
    distinct_fraction: float = field(init=False)
    total_weight: int
    distinct_count: int
    obtuse_weight: int
    obtuse_distinct: int

    def __post_init__(self):
        object.__setattr__(self, "n", check_int_range(self.n, "n", 1, MAX_N))
        if not (0 < self.distinct_count and 0 < self.total_weight):
            raise GuardError("empty census")
        if not (
            0 <= self.obtuse_weight <= self.total_weight
            and 0 <= self.obtuse_distinct <= self.distinct_count
        ):
            raise GuardError(
                f"obtuse counts ({self.obtuse_weight}, {self.obtuse_distinct}) exceed the "
                f"census ({self.total_weight}, {self.distinct_count}) or are negative"
            )
        object.__setattr__(self, "weighted_fraction", self.obtuse_weight / self.total_weight)
        object.__setattr__(self, "distinct_fraction", self.obtuse_distinct / self.distinct_count)


@dataclass(frozen=True, slots=True)
class EquidistReport:
    """One census fraction against both closed-form references."""

    n: int
    empirical_ratio: float
    uniform_target: float = field(init=False)
    langford: float = field(init=False)
    gap_to_uniform: float = field(init=False)
    gap_to_langford: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n", check_int_range(self.n, "n", 1, MAX_N))
        ratio = check_real(self.empirical_ratio, "empirical_ratio", 0.0)
        if ratio > 1.0:
            raise GuardError(f"empirical_ratio must be <= 1, got {ratio}")
        object.__setattr__(self, "empirical_ratio", ratio)
        uni = uniform_target(ModuliRegion.OBTUSE_ALL)
        lang = langford_obtuse_probability()
        object.__setattr__(self, "uniform_target", uni)
        object.__setattr__(self, "langford", lang)
        object.__setattr__(self, "gap_to_uniform", abs(ratio - uni))
        object.__setattr__(self, "gap_to_langford", abs(ratio - lang))


def curve_point_from_set(n: int, s: WeightedShapeSet) -> ObtuseCurvePoint:
    """Obtuse fractions of an existing census (no re-enumeration)."""
    p, q, r, w = s.columns()
    obtuse = ModuliRegion.OBTUSE_ALL.key_mask(p, q, r)
    return ObtuseCurvePoint(
        n, s.total_weight, len(s), exact_sum(w[obtuse]), int(np.count_nonzero(obtuse))
    )


def obtuse_curve(n_max: int) -> list[ObtuseCurvePoint]:
    """Obtuse fractions for every n = 2 .. n_max, from one pass over the
    box heights (enumeration.obtuse_counts)."""
    n_max = check_int_range(n_max, "n_max", 2, MAX_N)
    counts = enumerate(obtuse_counts(n_max), start=1)
    return [ObtuseCurvePoint(n, *c) for n, c in counts if n >= 2]


def obtuse_point(n: int) -> ObtuseCurvePoint:
    """The last point of the curve to n."""
    return obtuse_curve(check_int_range(n, "n", 2, MAX_N))[-1]


def equidist_report(n: int) -> EquidistReport:
    """Census obtuse fraction against the uniform-measure and
    random-triangle references."""
    point = obtuse_point(n)
    return EquidistReport(point.n, point.weighted_fraction)


def orbit_projections(s: WeightedShapeSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ab-plane projections of the labeled orbits of every class in s.

    Returns (a, b, weight) columns.  A scalene class contributes its 6
    labeled projections, an isosceles class 3, an equilateral class 1, each
    carrying the class weight; coincident permutations are not re-counted.
    """
    if len(s) == 0:
        raise GuardError("empty census")
    p, q, r, w = s.columns()
    sides = normalized_sides(p, q, r)
    eq_pq, eq_qr = p == q, q == r
    # the LABELED_PAIRS each class emits: an isosceles class skips the pairs
    # that repeat another, in the order of the scalene orbit
    kinds = (
        (~eq_pq & ~eq_qr, range(6)),
        (eq_pq & ~eq_qr, (0, 1, 4)),  # (a, a, c)
        (~eq_pq & eq_qr, (0, 2, 3)),  # (a, c, c)
        (eq_pq & eq_qr, (0,)),
    )
    parts = []  # (x, y, weight) columns, one per emitted pair
    for mask, picks in kinds:
        if np.any(mask):
            cols = [col[mask] for col in (*sides, w)]
            for i, j in (LABELED_PAIRS[k] for k in picks):
                parts.append((cols[i], cols[j], cols[3]))
    return tuple(np.concatenate(col) for col in zip(*parts))


def orbit_bin_masses(s: WeightedShapeSet, bins: int) -> np.ndarray:
    """Normalized bin masses of the labeled orbit projections of s on the
    shape_grid mesh.

    Every class counts all 6 LABELED_PAIRS with its weight w times its
    orbit size (6 scalene, 3 isosceles, 1 equilateral).  Each distinct
    projection is among the 6 pairs 6 / size times, so it carries 6w: the
    grid is exactly 6 times that of orbit_projections, and the masses are
    the same floats."""
    bins = check_int_range(bins, "bins", 2, MAX_BINS)
    if len(s) == 0:
        raise GuardError("empty census")
    p, q, r, w = s.columns()
    # indexed by the number of equal neighbours in the sorted triple
    size = np.array([6, 3, 1])[(p == q).astype(np.int64) + (q == r)]
    grid = shape_grid(normalized_sides(p, q, r), bins, LABELED_PAIRS, w * size)
    return grid / grid.sum()


def tv_distance(m1: np.ndarray, m2: np.ndarray) -> float:
    """Total variation distance between two mass grids of equal shape."""
    m1 = np.asarray(m1, dtype=np.float64)
    m2 = np.asarray(m2, dtype=np.float64)
    if m1.shape != m2.shape:
        raise GuardError(f"mass grids differ in shape: {m1.shape} vs {m2.shape}")
    return 0.5 * float(np.abs(m1 - m2).sum())


def compare_to_uniform(s: WeightedShapeSet, bins: int) -> float:
    """Total variation distance between the census orbit measure and the
    uniform measure on the labeled region, binned on a bins x bins grid."""
    return tv_distance(orbit_bin_masses(s, bins), uniform_bin_masses(bins))
