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
                      on one side, x h > y w                        4t
    three corners     (0,0), (w,0), (0,h)                          4t

The diagonal rows keep one side of the diagonal: the box's half turn
swaps the sides and maps each such row onto a congruent one.  So the
orbit weights of a box sum to the number of triangles whose exact box is
w x h, T(w, h) = 4(w-1)(h-1) + 2(w-1) + 2(h-1) + 4
+ 2((w+1)(h+1) - 3 - gcd(w, h)).  One per-height kernel, _box_keys,
gives the rows of box height h, their sorted squared sides and their
gcd-reduced packed keys.  The census weights those keys by translate
count, one height per job on the threads of parallel.map_ordered, and
merges the h-tables by key range, one range per job on the same threads.
As a post-condition the total weight must equal C(N^2, 3) minus the
collinear triples of the grid, or the run raises PrecisionError.
Squared sides are at most w^2 + h^2 <= 8 n^2, so the kernel computes in
int32, and every key packs into one int64 word by pack_key, its H_BITS
low bits 0 in the census and a box height in the curve.

The obtuse curve needs no census per n, because the rows of height h
belong to every grid with 2n >= h.  obtuse_counts makes one pass over
h = 1 .. 2 n_max with the same kernel, one height per job on the same
threads, and fills three (cell, height) tables, cell 1 the obtuse rows:
the orbit moments S0 = sum orbit and S1 = sum orbit w, whose running sums
give every n's weights in closed form, and the number of classes whose
first, smallest, height is h, whose running sums are every n's distinct
counts.  The height tables are split into the same key ranges as the
census's, and each range's job counts its classes by first height.
"""

from __future__ import annotations

import math
import sys
from functools import partial
from itertools import combinations

import numpy as np

from .errors import GuardError, PrecisionError, check_int_range
from .lattice import reduced_triple
from .moduli import ModuliRegion, WeightedShapeSet
from .parallel import map_ordered, release_freed_pages, worker_count

# The key count grows like n^4: 1.9 M at n = 31, 33.9 M at n = 64 (a
# 1.4 GB peak at 1 or 2 threads, set by the 50.5 M rows of the height tables
# beside their merged ranges) and about 200 M at n = 100, beyond a
# machine with 8 GB.
MAX_N = 64
# _box_keys computes in int32, as squared sides are at most 2 (2 MAX_N)^2 < 2^31;
# pack_key holds them and a box height h <= 2 MAX_N in 3 KEY_BITS + H_BITS = 56 bits
KEY_BITS = (8 * MAX_N * MAX_N).bit_length()
H_BITS = (2 * MAX_N).bit_length()
NAIVE_POINT_GUARD = 400  # enumerate_naive is cubic in the point count
# height-table rows per key-range job of the census and curve merges; the
# range count follows the rows, not the thread count
RANGE_KEYS = 1 << 17


def pack_key(p, q, r):
    """p, q, r < 2^KEY_BITS in KEY_BITS bits apiece, in (p, q, r) order, above
    H_BITS zero bits for a box height; for Python ints and numpy arrays alike."""
    return (p << (2 * KEY_BITS + H_BITS)) | (q << (KEY_BITS + H_BITS)) | (r << H_BITS)


def unpack_key(packed):
    """The (p, q, r) fields of pack_key, whatever the height bits hold;
    masked in place, so a census unpacks with no temporary beside them."""
    p, q, r = (packed >> (k * KEY_BITS + H_BITS) for k in (2, 1, 0))
    q &= (1 << KEY_BITS) - 1
    r &= (1 << KEY_BITS) - 1
    return p, q, r


def _rows_over_y(mask, y):
    """(w, x, y) for every (w - 1, x) pair that is True in mask, each pair
    repeated once per entry of y."""
    iw, ix = (i.astype(np.int32) for i in np.nonzero(mask))
    return np.repeat(iw + 1, len(y)), np.repeat(ix, len(y)), np.tile(y, len(iw))


def _box_rows(h: int):
    """Rows of every box w x h with 1 <= w <= h, independent of n: the
    triangle (0,0), (w, ay), (bx, by) as (w, ay, bx, by), with its orbit
    weight including the transpose factor.  All int32."""
    w = np.arange(1, h + 1, dtype=np.int32)[:, None]
    x = np.arange(h + 1, dtype=np.int32)
    # (0,0), (w,y), (x,h) with 0 <= x < w, 0 <= y < h: one corner, the
    # bottom corners (y = 0), the left corners (x = 0) or three corners
    fw, fx, fy = _rows_over_y(x < w, x[:h])
    # (0,0), (w,h), (x,y) below the diagonal, x h > y w (so 0 < x, y < h),
    # off the corner (w,0); the half turn maps them onto the rows above it
    dw, dx, dy = _rows_over_y((0 < x) & (x <= w), x[:h])
    keep = (dx * h > dy * dw) & ~((dx == dw) & (dy == 0))
    dw, dx, dy = dw[keep], dx[keep], dy[keep]

    one, two, four = np.int32(1), np.int32(2), np.int32(4)
    width = np.concatenate((fw, dw))
    flips = np.concatenate((np.where((fx == 0) == (fy == 0), four, two), np.full(len(dw), four)))
    orbit = flips * np.where(width < h, two, one)
    ay = np.concatenate((fy, np.full(len(dw), h, np.int32)))
    bx = np.concatenate((fx, dx))
    by = np.concatenate((np.full(len(fw), h, np.int32), dy))
    return width, ay, bx, by, orbit


def _heads(keys):
    """True at the first entry of each run of equal keys; empty for no keys."""
    return np.diff(keys, prepend=-1) != 0


def _merge(tables):
    """Sorted distinct keys and their summed int64 weights, from (keys,
    weights) tables in any order, all of them empty in an empty key range.
    The peak is four arrays of the total length."""
    keys, weights = zip(*tables)
    keys = np.concatenate(keys)
    weights = np.concatenate(weights)
    order = np.argsort(keys)
    keys = keys[order]
    weights = weights[order]
    del order
    starts = np.flatnonzero(_heads(keys))
    return keys[starts], np.add.reduceat(weights, starts)


def _key_ranges(reduce, tables):
    """reduce(slices) for each range of packed keys, in key order, one range
    per job on the threads of map_ordered.  tables are tuples of aligned
    arrays, the first sorted packed keys, and slices holds each table's rows
    in the range.  The ceil(rows / RANGE_KEYS) ranges split at evenly spaced
    keys of the largest table with their H_BITS cleared, so every row of a
    key, whatever its height bits, falls in one range."""
    keys = [table[0] for table in tables]
    largest = max(keys, key=len)
    ranges = -(-sum(map(len, keys)) // RANGE_KEYS)
    splitters = largest[np.arange(1, ranges) * len(largest) // ranges] & -(1 << H_BITS)
    bounds = [[0, *np.searchsorted(k, splitters).tolist(), len(k)] for k in keys]

    def job(i):
        return reduce([tuple(col[b[i]:b[i + 1]] for col in t) for t, b in zip(tables, bounds)])

    return map_ordered(job, [(i,) for i in range(ranges)], worker_count())


def _box_keys(h: int):
    """The rows of _box_rows(h): their widths and orbit weights, their
    sorted unreduced squared sides (lo, mid, hi), all int32, and their
    gcd-reduced keys packed by pack_key, int64: p's and q's fields pass int32."""
    width, ay, bx, by, orbit = _box_rows(h)
    p0 = width * width + ay * ay
    q0 = bx * bx + by * by
    r0 = (bx - width) ** 2 + (by - ay) ** 2
    lo = np.minimum(np.minimum(p0, q0), r0)
    hi = np.maximum(np.maximum(p0, q0), r0)
    mid = p0 + q0 + r0 - lo - hi
    g = np.gcd(np.gcd(lo, mid), hi)
    key = pack_key((lo // g).astype(np.int64), (mid // g).astype(np.int64), hi // g)
    return width, orbit, (lo, mid, hi), key


def _box_table(n: int, h: int):
    """Packed keys and census weights of the boxes of height h in [-n, n]^2."""
    width, orbit, _, packed = _box_keys(h)
    side = 2 * n + 1
    # int64 before the product: _merge sums the weights in their own dtype
    return _merge([(packed, orbit.astype(np.int64) * ((side - width) * (side - h)))])


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
    # a height's cost grows like h^3: the largest run first, while few tables
    # are held, and the small ones balance the end; _merge sorts each range
    heights = [(n, h) for h in range(2 * n, 0, -1)]
    tables = list(map_ordered(_box_table, heights, worker_count()))
    parts = list(_key_ranges(_merge, tables))
    # the tables came from the pool's threads, whose malloc arenas keep the
    # freed pages: handed back before the columns are allocated
    del tables
    release_freed_pages()
    count = sum(len(keys) for keys, _ in parts)
    p, q, r, w = (np.empty(count, np.int64) for _ in range(4))
    start = 0
    for i, (keys, weights) in enumerate(parts):
        parts[i] = None  # each part freed once it is copied
        rows = slice(start, start + len(keys))
        p[rows], q[rows], r[rows] = unpack_key(keys)
        w[rows] = weights
        start = rows.stop
        if i % 64 == 63:
            # the parts came from the pool's threads too: their freed pages
            # handed back as the columns fill, the n = 64 peak is the tables
            # beside the parts, 1.34 GB, not the columns beside them, 1.58
            release_freed_pages()
    s = WeightedShapeSet.from_columns(p, q, r, w)
    total, expected = s.total_weight, _triangle_total(n)
    if total != expected:
        raise PrecisionError(f"census total {total} != closed-form triangle count {expected}")
    return s


def _height_cells(h: int):
    """One height of obtuse_counts: the orbit moments S0 = sum orbit and
    S1 = sum orbit w of the rows of box height h by cell (1 the obtuse
    rows), and its sorted distinct packed keys, h in their height bits."""
    width, orbit, sides, packed = _box_keys(h)
    cell = ModuliRegion.OBTUSE_ALL.key_mask(*sides)
    del sides
    s0 = np.bincount(cell, orbit, 2)
    s1 = np.bincount(cell, orbit * width, 2)
    del width, orbit, cell
    packed.sort()
    packed = packed[_heads(packed)]
    packed |= h
    return s0, s1, packed


def _first_heights(size: int, slices):
    """One key range of obtuse_counts: its classes counted by (cell, first
    height) in a flat table of 2 size entries, from each height's keys in
    the range.  Sorted, a class's first entry holds its smallest height."""
    keyed = np.concatenate([keys for keys, in slices])
    keyed.sort()
    first = keyed[_heads(keyed >> H_BITS)]
    del keyed
    cell = ModuliRegion.OBTUSE_ALL.key_mask(*unpack_key(first))
    return np.bincount(cell * size + (first & ((1 << H_BITS) - 1)), minlength=2 * size)


def obtuse_counts(n_max: int) -> list[tuple[int, int, int, int]]:
    """(total_weight, distinct_count, obtuse_weight, obtuse_distinct) of the
    census of every n = 1 .. n_max, in ObtuseCurvePoint field order, from
    one pass over the box heights h = 1 .. 2 n_max.

    A row of box w x h has weight orbit (N - w)(N - h) for every n with
    h <= 2n.  With S0 = sum orbit and S1 = sum orbit w over a cell's rows of
    height h (cell 1 the obtuse rows), its weight at n is the sum over
    h <= 2n of (N - h)(N S0 - S1) = N^2 A - N B + C, with A, B and C the
    running sums of S0, h S0 + S1 and h S1.  A class is in grid n when its
    first height, the smallest h of its rows, is <= 2n.  The heights run
    one per job on the threads of parallel.map_ordered (_height_cells),
    largest first, each returning its distinct keys with h in their height
    bits.  Their tables are then split by key range, one range per job on
    the same threads (_first_heights), and every class counted once, at
    its first height.  A total off the closed-form triangle count raises
    PrecisionError."""
    n_max = check_int_range(n_max, "n_max", 1, MAX_N)
    heights = 2 * n_max
    # S0 and S1 by (cell, h); float bincounts are exact < 2^53
    s0, s1 = np.zeros((2, 2, heights + 1), dtype=np.int64)
    order = range(heights, 0, -1)
    cells = map_ordered(_height_cells, [(h,) for h in order], worker_count())
    tables = []
    for h, (height_s0, height_s1, keyed) in zip(order, cells):
        s0[:, h], s1[:, h] = height_s0, height_s1
        tables.append((keyed,))
    # the pool's threads kept the pages of their freed kernel arrays: handed
    # back before the ranges allocate
    release_freed_pages()
    firsts = sum(_key_ranges(partial(_first_heights, heights + 1), tables)).reshape(2, -1)
    # running sums at the columns h = 2n, where N = h + 1
    h = np.arange(heights + 1)
    side = h[2::2] + 1
    a, b, c, distinct = (np.cumsum(t, axis=1)[:, 2::2] for t in (s0, h * s0 + s1, h * s1, firsts))
    weight = side * side * a - side * b + c
    table = (weight.sum(axis=0), distinct.sum(axis=0), weight[1], distinct[1])
    counts = list(zip(*(col.tolist() for col in table)))
    for n, (total, *_) in enumerate(counts, start=1):
        expected = _triangle_total(n)
        if total != expected:
            raise PrecisionError(
                f"curve total {total} at n={n} != closed-form triangle count {expected}"
            )
    return counts


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
