"""Census of lattice triangles in [-n, n]^2 by similarity class.

Up to translation every triangle has one bounding box [0, w] x [0, h],
1 <= w, h <= 2n, with (N - w)(N - h) translates in the grid, N = 2n + 1.
So the census is a sum of per-box key tables, which do not depend on n,
each times its translate count.

A triangle with exact box w x h has a vertex on every side of the box,
so at least one vertex is a corner.  Only boxes with w <= h are scanned.
Their rows are split by which corners are vertices, and each row stands
for its orbit under the box flips, times t = 2 for the w <-> h transpose
when w < h (t = 1 when w = h):

    one corner        (0,0), (w,y), (x,h), 0 < x < w, 0 < y < h    4t
    bottom corners    (0,0), (w,0), (x,h), 0 < x < w               2t
    left corners      (0,0), (0,h), (w,y), 0 < y < h               2t
    diagonal corners  (0,0), (w,h), a box point off the corners
                      and off the diagonal (x h != y w)             2t
    three corners     (0,0), (w,0), (0,h)                          4t

So the orbit weights of a box sum to the number of triangles whose exact
box is w x h, T(w, h) = 4(w-1)(h-1) + 2(w-1) + 2(h-1) + 4
+ 2((w+1)(h+1) - 3 - gcd(w, h)).  The rows of one box height h are
reduced to sorted packed keys, and the h-tables are merged.  As a
post-condition the total weight must equal C(N^2, 3) minus the collinear
triples of the grid, or the run fails loudly.  Squared sides are at most
w^2 + h^2 <= 8 n^2, so keys pack into one int64 word.
"""

from __future__ import annotations

import math
import sys
from itertools import combinations

import numpy as np

from .errors import GuardError, check_int_range
from .lattice import pack_key, reduced_triple, unpack_key
from .moduli import WeightedShapeSet

# The key count grows like n^4: 1.9 M at n = 31, 33.9 M at n = 64 (a
# 2.2 GB peak) and about 200 M at n = 100, beyond a machine with 8 GB.
MAX_N = 64
NAIVE_POINT_GUARD = 400  # enumerate_naive is cubic in the point count


def _box_rows(h: int):
    """Rows of every box w x h with 1 <= w <= h, independent of n: the
    triangle (0,0), (w, ay), (bx, by) as (w, ay, bx, by), with its orbit
    weight including the transpose factor."""
    w = np.arange(1, h + 1, dtype=np.int64)[:, None, None]
    x = np.arange(h + 1, dtype=np.int64)[None, :, None]
    y = np.arange(h + 1, dtype=np.int64)[None, None, :]
    # (0,0), (w,y), (x,h) with 0 <= x < w, 0 <= y < h: one corner, the
    # bottom corners (y = 0), the left corners (x = 0) or three corners
    fw, fx, fy = np.nonzero((x < w) & (y < h))
    # (0,0), (w,h), (x,y) off the corners and off the diagonal
    corner = ((x == 0) | (x == w)) & ((y == 0) | (y == h))
    dw, dx, dy = np.nonzero((x <= w) & ~corner & (x * h != y * w))

    width = np.concatenate((fw, dw)) + 1
    flips = np.concatenate((np.where((fx == 0) == (fy == 0), 4, 2), np.full(len(dw), 2)))
    orbit = flips * np.where(width < h, 2, 1)
    ay = np.concatenate((fy, np.full(len(dw), h)))
    bx = np.concatenate((fx, dx))
    by = np.concatenate((np.full(len(fw), h), dy))
    return width, ay, bx, by, orbit


def _merge(tables):
    """Sorted distinct keys and their summed int64 weights, from (keys,
    weights) tables in any order.  Each input array is released once it
    is copied, which keeps the peak at four arrays of the total length."""
    keys, weights = zip(*tables)
    keys = np.concatenate(keys)
    weights = np.concatenate(weights)
    order = np.argsort(keys)
    keys = keys[order]
    weights = weights[order]
    del order
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], np.add.reduceat(weights, starts)


def _box_table(n: int, h: int):
    """Packed keys and census weights of the boxes of height h in [-n, n]^2."""
    width, ay, bx, by, orbit = _box_rows(h)
    side = 2 * n + 1
    p0 = width * width + ay * ay
    q0 = bx * bx + by * by
    r0 = (bx - width) ** 2 + (by - ay) ** 2
    lo3 = np.minimum(np.minimum(p0, q0), r0)
    hi3 = np.maximum(np.maximum(p0, q0), r0)
    mid = p0 + q0 + r0 - lo3 - hi3
    g = np.gcd(np.gcd(lo3, mid), hi3)
    packed = pack_key(lo3 // g, mid // g, hi3 // g, _pack_shift(n))
    return _merge([(packed, orbit * ((side - width) * (side - h)))])


def _pack_shift(n: int) -> int:
    # key entries are squared sides, at most 8 n^2
    return (8 * n * n).bit_length()


def _triangle_total(n: int) -> int:
    """Non-degenerate triangles in [-n, n]^2: C(N^2, 3) minus the collinear
    triples, counted by their outer points.  A pair with difference
    (+-dx, +-dy) has gcd(dx, dy) - 1 points strictly between and
    (N - dx)(N - dy) placements, and both signs count when dx, dy > 0."""
    side = 2 * n + 1
    d = np.arange(side, dtype=np.int64)
    signs = 1 + np.outer(d > 0, d > 0)
    signs[0, 0] = 0
    between = np.gcd.outer(d, d) - 1
    collinear = int((signs * between * np.outer(side - d, side - d)).sum())
    return math.comb(side * side, 3) - collinear


def enumerate_weighted(n: int) -> WeightedShapeSet:
    """Weighted census of all lattice triangles with vertices in [-n, n]^2,
    keyed by similarity class."""
    n = check_int_range(n, "n", 1, MAX_N)
    keys, weights = _merge(_box_table(n, h) for h in range(1, 2 * n + 1))
    total, expected = int(weights.sum()), _triangle_total(n)
    if total != expected:
        raise RuntimeError(f"census total {total} != closed-form triangle count {expected}")
    p, q, r = unpack_key(keys, _pack_shift(n))
    del keys  # from_columns holds the peak; it needs only the columns
    return WeightedShapeSet.from_columns(p, q, r, weights)


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
    """Number of non-degenerate triangles with vertices in [-n, n]^2, from
    the closed form the census is checked against."""
    return _triangle_total(check_int_range(n, "n", 1, MAX_N))
