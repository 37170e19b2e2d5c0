"""Shape space of triangles and its measures.

A triangle shape is the triple of side lengths normalized so their sum is
2.  Sorting ascending gives the moduli representative (one point per
similarity class); keeping labels gives a six-point orbit under relabeling,
except on the isosceles loci where the orbit degenerates.  Dropping the
largest coordinate projects the labeled space onto the open plane region
{(a, b) : a < 1, b < 1, a + b > 1}, a triangle of area 1/2.

Closed forms used as references:

* labeled (ab-plane) area: 1/2
* moduli space area (a <= b <= c slice of the same plane): 1/12
* obtuse part of the labeled region: 9/2 - 6 ln 2, i.e. three copies of
  the single-label region of area 3/2 - 2 ln 2 below the right-angle
  locus a = 2(1 - b)/(2 - b)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import GuardError, check_int_range, check_real
from .lattice import SimilarityKey
from .parallel import map_ordered, worker_count

SUM_TOL = 1e-12
MAX_BINS = 4096
# bound on WeightedShapeSet key entries, so p + q, d^2 and 4pq are exact in
# int64; census entries are at most 8 n^2 = 32,768
KEY_BOUND = 1 << 30
# rows per slice of the WeightedShapeSet invariant checks, so their
# temporaries stay small at any column length
CHECK_ROWS = 1 << 16


@dataclass(frozen=True, slots=True)
class ShapeTriple:
    """Moduli representative: sorted normalized side lengths, sum 2."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        for name in ("a", "b", "c"):
            object.__setattr__(self, name, check_real(getattr(self, name), name))
        if not (0.0 < self.a <= self.b <= self.c):
            raise ValueError(f"sides must satisfy 0 < a <= b <= c, got {self}")
        if self.c >= 1.0:
            raise ValueError(f"largest side must be < 1 (degenerate shape), got c={self.c}")
        if abs(self.a + self.b + self.c - 2.0) > SUM_TOL:
            raise ValueError(f"sides must sum to 2 within {SUM_TOL}, got {self}")

    @property
    def triple(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)

    def distance_to(self, other: "ShapeTriple") -> float:
        return math.sqrt(
            (self.a - other.a) ** 2 + (self.b - other.b) ** 2 + (self.c - other.c) ** 2
        )


def normalized_sides(p, q, r):
    """Side lengths sqrt(p), sqrt(q), sqrt(r) of squared sides p, q, r,
    scaled so they sum to 2.  Elementwise over arrays; integer squared
    sides are converted to float64 first.  Every shape coordinate in the
    package (shape_of, orbit projections, exports, histogram bins) comes
    from here."""
    la, lb, lc = (np.sqrt(np.asarray(x, dtype=np.float64)) for x in (p, q, r))
    half = (la + lb + lc) / 2.0
    return la / half, lb / half, lc / half


def shape_of(key: SimilarityKey) -> ShapeTriple:
    """Normalized side lengths of the similarity class: sides sqrt(p) <=
    sqrt(q) <= sqrt(r) scaled so they sum to 2."""
    return ShapeTriple(*normalized_sides(key.p, key.q, key.r))


# the labeled orbit order: projection k of a shape (a, b, c) takes its first
# and second coordinate from the sides LABELED_PAIRS[k]
LABELED_PAIRS = ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))
# the labeled pairs with i < j; the other half of LABELED_PAIRS are these
# swapped, so a labeled grid is H + H^T of their half-grid H
HALF_PAIRS = tuple((i, j) for i, j in LABELED_PAIRS if i < j)


def shape_grid(coords, bins: int, pairs=((0, 1),), weights=None) -> np.ndarray:
    """int64 bins x bins grid of the points (coords[i], coords[j]) of
    [0, 1]^2 for every (i, j) in pairs.  Each coordinate column is binned
    once: v falls in cell floor(v * bins), 1.0 in the last cell.  A point
    counts 1, or its integer weight (weights tiled once per pair), exact
    while the total stays below 2^53."""
    n = len(coords[0])
    k = np.empty((len(coords), n), np.int64)
    for v, cell in zip(coords, k):
        # float64 product truncated as by astype, without a float temporary
        np.multiply(v, bins, out=cell, casting="unsafe")
    np.clip(k, 0, bins - 1, out=k)
    cells = np.empty((len(pairs), n), np.int64)
    for cell, (i, j) in zip(cells, pairs):
        np.multiply(k[i], bins, out=cell)
        cell += k[j]
    if weights is not None:
        weights = np.tile(np.asarray(weights, dtype=np.float64), len(pairs))
    grid = np.bincount(cells.ravel(), weights, minlength=bins * bins)
    return grid.astype(np.int64, copy=False).reshape(bins, bins)


def uniform_bin_masses(bins: int) -> np.ndarray:
    """Mass the uniform measure on {a < 1, b < 1, a + b > 1} puts in each
    cell of the shape_grid mesh of bins x bins cells.

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


def measure_teich() -> float:
    """Lebesgue area of the labeled ab-plane region: the open triangle
    with corners (1,0), (0,1), (1,1)."""
    return 0.5


def measure_moduli() -> float:
    """Area of the moduli slice {a <= b, a + 2b <= 2, a + b > 1}: one sixth
    of the labeled region."""
    return 1.0 / 12.0


def obtuse_region_measure() -> float:
    """Area of the obtuse part of the labeled region: 9/2 - 6 ln 2.

    Three congruent single-label pieces of area 3/2 - 2 ln 2 each, one per
    choice of which labeled side is the longest.
    """
    return 4.5 - 6.0 * math.log(2.0)


def right_locus(b: float) -> float:
    """The a-coordinate of the right-angle locus at height b: shapes with
    c the hypotenuse satisfy a = 2(1 - b)/(2 - b)."""
    b = check_real(b, "b")
    if not (0.0 < b < 1.0):
        raise ValueError(f"b={b} outside (0, 1)")
    return 2.0 * (1.0 - b) / (2.0 - b)


class ModuliRegion(Enum):
    """Angle-class regions of shape space."""

    OBTUSE_ALL = "obtuse"
    ACUTE = "acute"
    FULL = "full"

    def key_mask(self, p: np.ndarray, q: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Which keys, given as column arrays of reduced triples, lie in the
        region: the exact comparison of r against p + q."""
        if self is ModuliRegion.FULL:
            return np.ones(len(p), dtype=bool)
        if self is ModuliRegion.OBTUSE_ALL:
            return r > p + q
        return r < p + q


def angle_class(p: np.ndarray, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """0, 1 or 2 for acute, right or obtuse key columns: sign(r - p - q) + 1."""
    return np.sign(r - p - q) + 1


def uniform_target(region: ModuliRegion) -> float:
    """Mass the uniform measure on the labeled region assigns to region."""
    if region is ModuliRegion.FULL:
        return 1.0
    obtuse = obtuse_region_measure() / measure_teich()
    if region is ModuliRegion.OBTUSE_ALL:
        return obtuse
    return 1.0 - obtuse


def exact_sum(w) -> int:
    """Exact sum of an int64 column as a Python int.  An int64 sum can wrap,
    so each CHECK_ROWS slice sums the high and low 32-bit halves of its
    entries, each sum below 2^48 in magnitude."""
    total = 0
    for start in range(0, len(w), CHECK_ROWS):
        ws = w[start : start + CHECK_ROWS]
        total += (int((ws >> 32).sum()) << 32) + int((ws & 0xFFFFFFFF).sum())
    return total


class WeightedShapeSet:
    """Immutable weighted set of similarity classes (key -> multiplicity).

    Backed by int64 column arrays sorted lexicographically by (p, q, r),
    so censuses with ~10^6 classes stay compact and export order is
    canonical.  Weights are positive integers that fit in int64, and key
    entries are below KEY_BOUND (GuardError otherwise).
    """

    __slots__ = ("_p", "_q", "_r", "_w", "_total")

    def __init__(self, entries):
        rows = []
        for key, weight in entries.items():
            if isinstance(key, SimilarityKey):
                trip = key.triple
            else:
                trip = SimilarityKey(*key).triple  # validates arbitrary tuples
            rows.append((*trip, check_int_range(weight, "weight", 1, (1 << 63) - 1)))
        rows.sort()
        try:
            cols = np.array(rows, dtype=np.int64).reshape(len(rows), 4)
        except OverflowError:
            raise GuardError(f"key entries must be below {KEY_BOUND}") from None
        self._init_columns(cols[:, 0], cols[:, 1], cols[:, 2], cols[:, 3])

    @classmethod
    def from_columns(cls, p, q, r, w) -> "WeightedShapeSet":
        """Build from parallel 1-D integer arrays (dtype kind 'i' or 'u') sorted
        by (p, q, r); GuardError for other shapes, dtypes or a key entry of
        KEY_BOUND or more, ValueError when the rows break an invariant.
        Takes its columns: a contiguous int64 column is kept without a copy
        and turns read-only for the caller too; any other column is copied.
        Copying all four would add about 1 GB to the 1.1 GB of n = 64
        columns this call holds, above the census's 1.35 GB peak."""
        cols = [np.asarray(col) for col in (p, q, r, w)]
        for col, name in zip(cols, ("p", "q", "r", "weight")):
            if col.dtype.kind not in "iu" or col.ndim != 1:
                raise GuardError(f"column {name} must be 1-D integers, got {col.dtype} {col.shape}")
        self = object.__new__(cls)
        self._init_columns(*(np.ascontiguousarray(col, dtype=np.int64) for col in cols))
        return self

    def _init_columns(self, p, q, r, w):
        if not (len(p) == len(q) == len(r) == len(w)):
            raise ValueError("column lengths differ")

        def check_slice(start):
            # each slice's checks also take the row before it, so the order
            # check covers the pair that straddles the slice boundary
            rows = slice(max(start - 1, 0), start + CHECK_ROWS)
            ps, qs, rs = p[rows], q[rows], r[rows]
            if np.any(w[rows] <= 0):
                raise ValueError("weights must be positive")
            if np.any((ps < 1) | (ps > qs) | (qs > rs)):
                raise ValueError("triples must be sorted with p >= 1")
            if np.any(rs >= KEY_BOUND):
                raise GuardError(f"key entries must be below {KEY_BOUND}")
            d = rs - ps - qs
            if np.any((d >= 0) & (d * d >= 4 * ps * qs)):
                raise ValueError("some triple fails the strict triangle test")
            if np.any(np.gcd(np.gcd(ps, qs), rs) != 1):
                raise ValueError("some triple is not gcd-reduced")
            # each row must strictly precede the next in (p, q, r) order
            p0, q0, r0, p1, q1, r1 = ps[:-1], qs[:-1], rs[:-1], ps[1:], qs[1:], rs[1:]
            if not np.all((p0 < p1) | ((p0 == p1) & ((q0 < q1) | ((q0 == q1) & (r0 < r1))))):
                raise ValueError("columns must be sorted by (p, q, r) without duplicate keys")

        # one job per slice on the pool; map_ordered raises a job's error at
        # its position, so the earliest bad slice's error is the one raised
        starts = [(start,) for start in range(0, len(p), CHECK_ROWS)]
        for _ in map_ordered(check_slice, starts, worker_count()):
            pass
        for arr, name in ((p, "_p"), (q, "_q"), (r, "_r"), (w, "_w")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_total", exact_sum(w))

    @property
    def total_weight(self) -> int:
        return self._total

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (p, q, r, weight) columns sorted by (p, q, r)."""
        return (self._p, self._q, self._r, self._w)

    def __len__(self) -> int:
        return len(self._w)

    def items(self):
        for i in range(len(self._w)):
            yield (
                SimilarityKey(int(self._p[i]), int(self._q[i]), int(self._r[i])),
                int(self._w[i]),
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedShapeSet):
            return NotImplemented
        return (
            len(self) == len(other)
            and np.array_equal(self._p, other._p)
            and np.array_equal(self._q, other._q)
            and np.array_equal(self._r, other._r)
            and np.array_equal(self._w, other._w)
        )

    def __repr__(self) -> str:
        return f"WeightedShapeSet({len(self)} classes, total weight {self._total})"
