"""Census analysis: obtuse fractions, equidistribution gap, and the total
variation distance between a census and the uniform shape measure.

The headline comparison puts three measures side by side per grid size n:

* the weighted census fraction of obtuse triangles in [-n, n]^2,
* the uniform-measure mass of the obtuse region, 9 - 12 ln 2 ~ 0.6822,
* the random-triangle baseline 97/150 + pi/40 ~ 0.7252.

The census tracking the random-triangle value rather than the uniform one
is the non-equidistribution phenomenon; compare_to_uniform quantifies it
in total variation over a bin grid.

obtuse_curve, obtuse_point and equidist_report build no census: their
counts for every n up to n_max come from one pass over the box heights,
enumeration.obtuse_counts, whose weights are closed forms in per-height
orbit moments and whose distinct counts come from each class's first
box height.  Every point equals curve_point_from_set of its own census.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .enumeration import MAX_N, obtuse_counts
from .errors import GuardError, check_int_range
from .moduli import ModuliRegion, WeightedShapeSet, normalized_sides, uniform_target
from .randgeom import MAX_BINS, langford_obtuse_probability

_FRACTION_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class ObtuseCurvePoint:
    """Obtuse fractions of one census, with the counts they came from."""

    n: int
    weighted_fraction: float
    distinct_fraction: float
    total_weight: int
    distinct_count: int
    obtuse_weight: int
    obtuse_distinct: int

    def __post_init__(self):
        if not (0 < self.distinct_count and 0 < self.total_weight):
            raise ValueError("curve point needs a nonempty census")
        if abs(self.weighted_fraction - self.obtuse_weight / self.total_weight) > _FRACTION_TOL:
            raise ValueError("weighted_fraction inconsistent with stored counts")
        if abs(self.distinct_fraction - self.obtuse_distinct / self.distinct_count) > _FRACTION_TOL:
            raise ValueError("distinct_fraction inconsistent with stored counts")


@dataclass(frozen=True, slots=True)
class EquidistReport:
    """One census fraction against both closed-form references."""

    n: int
    empirical_ratio: float
    uniform_target: float
    langford: float
    gap_to_uniform: float
    gap_to_langford: float

    def __post_init__(self):
        if abs(self.gap_to_uniform - abs(self.empirical_ratio - self.uniform_target)) > _FRACTION_TOL:
            raise ValueError("gap_to_uniform inconsistent with stored values")
        if abs(self.gap_to_langford - abs(self.empirical_ratio - self.langford)) > _FRACTION_TOL:
            raise ValueError("gap_to_langford inconsistent with stored values")


def _curve_point(n: int, tw: int, ow: int, dc: int, od: int) -> ObtuseCurvePoint:
    """The curve point at n from its total and obtuse weights and its
    distinct and obtuse distinct counts."""
    return ObtuseCurvePoint(n, ow / tw, od / dc, tw, dc, ow, od)


def curve_point_from_set(n: int, s: WeightedShapeSet) -> ObtuseCurvePoint:
    """Obtuse fractions of an existing census (no re-enumeration)."""
    if len(s) == 0:
        raise GuardError("empty census")
    p, q, r, w = s.columns()
    obtuse = ModuliRegion.OBTUSE_ALL.key_mask(p, q, r)
    return _curve_point(
        n, s.total_weight, int(w[obtuse].sum()), len(s), int(np.count_nonzero(obtuse))
    )


def obtuse_curve(n_max: int) -> list[ObtuseCurvePoint]:
    """Obtuse fractions for every n = 2 .. n_max, from one pass over the
    box heights (enumeration.obtuse_counts)."""
    n_max = check_int_range(n_max, "n_max", 2, MAX_N)
    counts = enumerate(obtuse_counts(n_max), start=1)
    return [_curve_point(n, *c) for n, c in counts if n >= 2]


def obtuse_point(n: int) -> ObtuseCurvePoint:
    """The last point of the curve to n."""
    return obtuse_curve(check_int_range(n, "n", 2, MAX_N))[-1]


def report_from_point(point: ObtuseCurvePoint) -> EquidistReport:
    """Equidistribution report for an already-computed curve point."""
    uni = uniform_target(ModuliRegion.OBTUSE_ALL)
    lang = langford_obtuse_probability()
    emp = point.weighted_fraction
    return EquidistReport(
        n=point.n,
        empirical_ratio=emp,
        uniform_target=uni,
        langford=lang,
        gap_to_uniform=abs(emp - uni),
        gap_to_langford=abs(emp - lang),
    )


def equidist_report(n: int) -> EquidistReport:
    """Census obtuse fraction against the uniform-measure and
    random-triangle references."""
    return report_from_point(obtuse_point(n))


def uniform_bin_masses(bins: int) -> np.ndarray:
    """Mass the uniform measure on {a < 1, b < 1, a + b > 1} puts in each
    cell of a bins x bins grid on [0,1)^2.

    The region's hypotenuse a + b = 1 runs corner-to-corner through the
    grid, so each cell is either fully inside (i + j >= bins), fully
    outside (i + j <= bins - 2), or exactly half covered along the
    diagonal i + j = bins - 1.  Masses are exact rationals in floats:
    2/bins^2, 0, and 1/bins^2."""
    bins = check_int_range(bins, "bins", 2, MAX_BINS)
    i = np.arange(bins)[:, None]
    j = np.arange(bins)[None, :]
    masses = np.zeros((bins, bins), dtype=np.float64)
    masses[i + j >= bins] = 2.0 / (bins * bins)
    masses[i + j == bins - 1] = 1.0 / (bins * bins)
    return masses


def orbit_projections(s: WeightedShapeSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ab-plane projections of the labeled orbits of every class in s.

    Returns (a, b, weight) columns.  A scalene class contributes its 6
    labeled projections, an isosceles class 3, an equilateral class 1, each
    carrying the class weight; coincident permutations are not re-counted.
    """
    if len(s) == 0:
        raise GuardError("empty census")
    p, q, r, w = s.columns()
    a, b, c = normalized_sides(p, q, r)

    eq_pq = p == q
    eq_qr = q == r
    scal = ~eq_pq & ~eq_qr
    iso1 = eq_pq & ~eq_qr  # (a, a, c)
    iso2 = ~eq_pq & eq_qr  # (a, c, c)
    equi = eq_pq & eq_qr

    xs, ys, ws = [], [], []

    def emit(mask, xcol, ycol):
        if np.any(mask):
            xs.append(xcol[mask])
            ys.append(ycol[mask])
            ws.append(w[mask])

    for xcol, ycol in ((a, b), (a, c), (b, a), (b, c), (c, a), (c, b)):
        emit(scal, xcol, ycol)
    for xcol, ycol in ((a, a), (a, c), (c, a)):
        emit(iso1, xcol, ycol)
    for xcol, ycol in ((a, c), (c, a), (c, c)):
        emit(iso2, xcol, ycol)
    emit(equi, a, a)

    return (
        np.concatenate(xs),
        np.concatenate(ys),
        np.concatenate(ws).astype(np.int64),
    )


def orbit_bin_masses(s: WeightedShapeSet, bins: int) -> np.ndarray:
    """Normalized bin masses of the labeled orbit projections of s."""
    bins = check_int_range(bins, "bins", 2, MAX_BINS)
    x, y, w = orbit_projections(s)
    ix = np.clip((x * bins).astype(np.int64), 0, bins - 1)
    iy = np.clip((y * bins).astype(np.int64), 0, bins - 1)
    grid = np.zeros((bins, bins), dtype=np.int64)
    np.add.at(grid, (ix, iy), w)
    total = int(grid.sum())
    return grid.astype(np.float64) / total


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
