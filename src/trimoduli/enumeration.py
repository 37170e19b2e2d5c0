"""Census of lattice triangles in [-n, n]^2 by similarity class.

The weighted census is translation-reduced.  A triangle with vertices
A, B, C anchored at A is the ordered pair of edge vectors (u, v) =
(B - A, C - A); the number of integer translates of its bounding box that
fit inside the (2n+1) x (2n+1) grid is

    (2n + 1 - w) (2n + 1 - h),   w = max(0, ux, vx) - min(0, ux, vx),

and likewise h, provided w, h <= 2n.  Summing that multiplicity over all
ordered pairs with nonzero cross product counts every (triangle, position)
combination exactly six times: each unordered triangle is anchored at any
of its 3 vertices with 2 orderings of the remaining two, and the six
resulting pairs are pairwise distinct because u, v, u - v are nonzero and
u != v.  The accumulated totals are therefore divided by 6 at the end, and
the division is checked to be exact; a remainder fails the run loudly.

Components of the pairs live in [-2n, 2n]^2, so squared sides are at most
8 n^2 and the per-pair arithmetic fits comfortably in int64.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import GuardError, check_int_range
from .lattice import SimilarityKey, pack_key, reduced_triple, unpack_key
from .moduli import WeightedShapeSet
from .parallel import map_ordered, worker_count

# Keys pack into one int64 word as three fields of (8 n^2).bit_length()
# bits: 8 * 511^2 has 21 bits and 3 * 21 = 63, while 8 * 512^2 = 2^21
# needs 22.  So 511 is the largest n whose keys pack.
MAX_N = 511
NAIVE_POINT_GUARD = 400  # enumerate_naive is cubic in the point count

_ROW_TARGET = 1 << 20  # ordered pairs per vectorized batch
_COMPACT_AT = 1 << 23  # merge partial results once this many rows pile up


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """Width and height of the axis-aligned bounding box of an anchored
    triangle {0, u, v}."""

    w: int
    h: int

    def __post_init__(self):
        if self.w < 0 or self.h < 0:
            raise ValueError(f"bounding box must be non-negative, got {self}")
        if self.w == 0 and self.h == 0:
            raise ValueError("bounding box of a non-degenerate triangle cannot be 0x0")


@dataclass(frozen=True, slots=True)
class TranslationClass:
    """Triangle modulo translation: ordered edge vectors (u, v) from the
    anchor vertex."""

    u: tuple[int, int]
    v: tuple[int, int]

    def __post_init__(self):
        ux, uy = self.u
        vx, vy = self.v
        if ux * vy - uy * vx == 0:
            raise ValueError(f"edge vectors {self.u}, {self.v} span no area")

    def bounding_box(self) -> BoundingBox:
        ux, uy = self.u
        vx, vy = self.v
        return BoundingBox(
            max(0, ux, vx) - min(0, ux, vx),
            max(0, uy, vy) - min(0, uy, vy),
        )

    def squared_sides(self) -> tuple[int, int, int]:
        ux, uy = self.u
        vx, vy = self.v
        p0 = ux * ux + uy * uy
        q0 = vx * vx + vy * vy
        r0 = (vx - ux) ** 2 + (vy - uy) ** 2
        return tuple(sorted((p0, q0, r0)))

    def key(self) -> SimilarityKey:
        return SimilarityKey(*reduced_triple(*self.squared_sides()))


def translation_multiplicity(box: BoundingBox, n: int) -> int:
    """Number of translates of a w x h bounding box inside [-n, n]^2."""
    n = check_int_range(n, "n", 1, MAX_N)
    span = 2 * n
    if box.w > span or box.h > span:
        return 0
    return (span + 1 - box.w) * (span + 1 - box.h)


def _batch_totals(n: int, lo: int, hi: int):
    """Accumulate translate multiplicities over ordered pairs whose u-index
    lies in [lo, hi).  Returns (packed keys, int64 totals) with packed keys
    sorted ascending; pack_key preserves the lexicographic order of the
    reduced triples."""
    span = 2 * n
    side = 2 * span + 1

    c = np.arange(-span, span + 1, dtype=np.int64)
    vx = np.repeat(c, side)
    vy = np.tile(c, side)
    idx = np.arange(lo, hi, dtype=np.int64)
    ux = (idx // side - span)[:, None]
    uy = (idx % side - span)[:, None]

    valid = (ux * vy - uy * vx) != 0
    wspan = np.maximum(np.maximum(ux, vx), 0) - np.minimum(np.minimum(ux, vx), 0)
    valid &= wspan <= span
    hspan = np.maximum(np.maximum(uy, vy), 0) - np.minimum(np.minimum(uy, vy), 0)
    valid &= hspan <= span

    mult = ((span + 1 - wspan) * (span + 1 - hspan))[valid]
    del wspan, hspan
    UX = np.broadcast_to(ux, valid.shape)[valid]
    UY = np.broadcast_to(uy, valid.shape)[valid]
    VX = np.broadcast_to(vx, valid.shape)[valid]
    VY = np.broadcast_to(vy, valid.shape)[valid]
    del valid

    p0 = UX * UX + UY * UY
    q0 = VX * VX + VY * VY
    dx = VX - UX
    dy = VY - UY
    r0 = dx * dx + dy * dy
    lo3 = np.minimum(np.minimum(p0, q0), r0)
    hi3 = np.maximum(np.maximum(p0, q0), r0)
    mid = p0 + q0 + r0 - lo3 - hi3
    g = np.gcd(np.gcd(lo3, mid), hi3)
    lo3 //= g
    mid //= g
    hi3 //= g

    packed = pack_key(lo3, mid, hi3, _pack_shift(n))
    keys, inverse = np.unique(packed, return_inverse=True)
    totals = np.zeros(len(keys), dtype=np.int64)
    np.add.at(totals, inverse, mult)  # exact int64 accumulation
    return keys, totals


def _pack_shift(n: int) -> int:
    # key entries are squared sides of the pairs, at most 8 n^2
    return (8 * n * n).bit_length()


def _merge_parts(parts):
    keys = np.concatenate([k for k, _ in parts])
    weights = np.concatenate([w for _, w in parts])
    uniq, inverse = np.unique(keys, return_inverse=True)
    totals = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(totals, inverse, weights)
    return uniq, totals


def _ordered_pair_totals(n: int):
    """Raw per-key multiplicity sums over all ordered pairs, before the
    division by 6.  Returns (p, q, r, totals) columns sorted by (p, q, r)."""
    n = check_int_range(n, "n", 1, MAX_N)
    side = 4 * n + 1
    u_total = side * side
    batch = max(1, _ROW_TARGET // u_total)
    ranges = [(n, b, min(b + batch, u_total)) for b in range(0, u_total, batch)]

    workers = worker_count()
    parts: list = []
    rows = 0
    for part in map_ordered(_batch_totals, ranges, workers):
        parts.append(part)
        rows += len(part[0])
        if rows > _COMPACT_AT:
            parts = [_merge_parts(parts)]
            rows = len(parts[0][0])
    keys, totals = _merge_parts(parts) if len(parts) != 1 else parts[0]
    return (*unpack_key(keys, _pack_shift(n)), totals)


def enumerate_weighted(n: int) -> WeightedShapeSet:
    """Weighted census of all lattice triangles with vertices in [-n, n]^2,
    keyed by similarity class."""
    p, q, r, totals = _ordered_pair_totals(n)
    bad = totals % 6
    if np.any(bad):
        raise RuntimeError(
            f"ordered-pair totals not divisible by 6 for {int(np.count_nonzero(bad))} "
            "keys; the 6-fold anchor/ordering symmetry was violated"
        )
    return WeightedShapeSet.from_columns(p, q, r, totals // 6)


def _box_points(box) -> list[tuple[int, int]]:
    """Lattice points of box = (xmin, xmax, ymin, ymax), bounds inclusive;
    GuardError for a malformed or empty box or one above
    NAIVE_POINT_GUARD points, which the cubic oracles cannot finish."""
    try:
        xmin, xmax, ymin, ymax = (
            check_int_range(v, "box bound", -sys.maxsize - 1, sys.maxsize) for v in box
        )
    except (TypeError, ValueError):
        raise GuardError(f"box must be four integers (xmin, xmax, ymin, ymax), got {box!r}")
    if xmin > xmax or ymin > ymax:
        raise GuardError(f"empty box {box!r}")
    count = (xmax - xmin + 1) * (ymax - ymin + 1)
    if count > NAIVE_POINT_GUARD:
        raise GuardError(f"box has {count} points; the cap is {NAIVE_POINT_GUARD}")
    return [(x, y) for x in range(xmin, xmax + 1) for y in range(ymin, ymax + 1)]


def enumerate_naive(box: tuple[int, int, int, int]) -> WeightedShapeSet:
    """Reference census over an explicit rectangle of lattice points.

    box is (xmin, xmax, ymin, ymax), bounds inclusive.  Iterates all
    3-subsets of the points, so the rectangle is capped at
    NAIVE_POINT_GUARD points.  This is the oracle the fast census is
    checked against.
    """
    pts = _box_points(box)
    counts: dict[tuple[int, int, int], int] = {}
    for (ax, ay), (bx, by), (cx, cy) in combinations(pts, 3):
        ubx = bx - ax
        uby = by - ay
        ucx = cx - ax
        ucy = cy - ay
        if ubx * ucy - uby * ucx == 0:
            continue
        p0 = ubx * ubx + uby * uby
        q0 = ucx * ucx + ucy * ucy
        r0 = (cx - bx) ** 2 + (cy - by) ** 2
        key = reduced_triple(p0, q0, r0)
        counts[key] = counts.get(key, 0) + 1
    return WeightedShapeSet(counts)


def distinct_classes(n: int) -> set[SimilarityKey]:
    """The set of similarity classes realized in [-n, n]^2."""
    return set(enumerate_weighted(n).keys())


def collinear_triple_count(box: tuple[int, int, int, int]) -> int:
    """Count collinear (degenerate) point triples in the box; used to
    cross-check census totals against C(points, 3)."""
    pts = _box_points(box)
    total = 0
    for (ax, ay), (bx, by), (cx, cy) in combinations(pts, 3):
        if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) == 0:
            total += 1
    return total


def total_triangle_count(n: int) -> int:
    """Number of non-degenerate triangles with vertices in [-n, n]^2."""
    return enumerate_weighted(n).total_weight
