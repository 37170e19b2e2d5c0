"""Dirichlet approximation and lattice approximants of shapes.

The 1-D and 2-D approximators run the textbook pigeonhole scan: drop the
fractional parts of k*x (or (k*x, k*y)) into equal boxes until two land in
the same box, then subtract.  The scan is deterministic and termination is
guaranteed by counting, but the scan length grows like the box count for
badly approximable inputs, so the eps guards below bound the work as well
as the floating-point error.

Shape approximants come from a direct scan instead: place the target on
the unit base, scale by m = 1, 2, ... and round the apex to the nearest
lattice point.  The first m whose triangle lands within eps is returned,
so the witness is the smallest base along that ray.

Every witness is re-verified against the requested bound after the scan;
a failed verification raises PrecisionError rather than returning a wrong
answer, which is what makes double precision acceptable here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GuardError, PrecisionError
from .lattice import LatticePoint, LatticeTriangle, similarity_key
from .moduli import ShapeTriple, normalized_sides, shape_of

EPS_FLOOR_1D = 1e-12
EPS_FLOOR_2D = 1e-9
EPS_FLOOR_SHAPE = 1e-6
# Largest base approximate_shape tries: squared sides stay below 2 m^2 <=
# 2^49, so they and the rounded apex are exact in float64.
_MAX_BASE = 1 << 24


@dataclass(frozen=True, slots=True)
class DirichletApproximant:
    """Simultaneous approximation m*(x, y) ~ (nx, ny) with achieved errors."""

    m: int
    nx: int
    ny: int
    err_x: float
    err_y: float

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"multiplier m must be >= 1, got {self.m}")
        if self.err_x < 0 or self.err_y < 0:
            raise ValueError("achieved errors cannot be negative")


@dataclass(frozen=True, slots=True)
class PlaneVertex:
    """Apex of a normalized triangle placed on the unit base; upper half-plane."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"vertex coordinates must be finite, got {self}")
        if self.y <= 0.0:
            raise ValueError(f"apex must lie strictly above the base, got y={self.y}")


def dirichlet_1d(x: float, eps: float) -> tuple[int, int]:
    """Find integers (m, n), m >= 1, with |m*x - n| < eps by pigeonhole.

    Scans k = 0, 1, ... dropping {k x} into ceil(1/eps) equal boxes; the
    first box collision (i, j) gives m = j - i, n = floor(j x) - floor(i x).
    Any valid witness is acceptable; this returns the first one found.
    """
    x = float(x)
    eps = float(eps)
    if not math.isfinite(x):
        raise GuardError(f"x must be finite, got {x!r}")
    if not (eps >= EPS_FLOOR_1D):
        raise GuardError(f"eps must be >= {EPS_FLOOR_1D}, got {eps}")
    boxes = math.ceil(1.0 / eps)
    floor = math.floor
    seen: dict[int, int] = {}
    # boxes + 1 draws force a collision, but a witness straddling a box
    # boundary can miss eps by an ulp; keep scanning past such near
    # misses, the very next wrap of the orbit produces a clean pair
    for k in range(8 * boxes + 9):
        kx = k * x
        frac = kx - floor(kx)
        b = int(frac * boxes)
        if b >= boxes:  # frac rounded up to 1.0
            b = boxes - 1
        if b in seen:
            i = seen[b]
            m = k - i
            n = floor(kx) - floor(i * x)
            if abs(m * x - n) < eps:
                return (m, n)
        else:
            seen[b] = k
    raise PrecisionError(
        f"pigeonhole scan found no verified witness for x={x!r}, eps={eps}"
    )


_SCAN_BLOCK = 1 << 16
_BITMAP_MAX_BITS = 1 << 30  # 128 MB occupancy bitmap ceiling


def _boxes_2d(lo: int, hi: int, x: float, y: float, boxes: int) -> np.ndarray:
    """Flattened box index of ({k x}, {k y}) for k in [lo, hi).  Bit-for-bit
    the same arithmetic as the scalar scan: one double multiply, floor,
    scale, truncate."""
    k = np.arange(lo, hi, dtype=np.float64)
    kx = k * x
    ky = k * y
    bx = ((kx - np.floor(kx)) * boxes).astype(np.int64)
    by = ((ky - np.floor(ky)) * boxes).astype(np.int64)
    np.minimum(bx, boxes - 1, out=bx)  # frac can round up to 1.0
    np.minimum(by, boxes - 1, out=by)
    return bx * boxes + by


def _first_of_box(x: float, y: float, boxes: int, box: int, limit: int) -> int:
    """First k <= limit whose fractional-part pair lands in `box`."""
    for lo in range(0, limit + 1, _SCAN_BLOCK):
        bb = _boxes_2d(lo, min(lo + _SCAN_BLOCK, limit + 1), x, y, boxes)
        hits = np.flatnonzero(bb == box)
        if len(hits):
            return lo + int(hits[0])
    raise PrecisionError("lost the first occupant during the rescan")


def _collision_2d_vector(x: float, y: float, boxes: int) -> tuple[int, int]:
    """First pigeonhole collision (i, j), i < j, scanning k = 0 .. boxes^2
    in vectorized blocks over a bitmap of occupied boxes.  Returns exactly
    the pair the sequential dict scan would find."""
    total = boxes * boxes
    words = np.zeros((total + 63) // 64, dtype=np.uint64)
    for lo in range(0, total + 1, _SCAN_BLOCK):
        bb = _boxes_2d(lo, min(lo + _SCAN_BLOCK, total + 1), x, y, boxes)
        word = (bb >> 6).astype(np.int64)
        bit = np.uint64(1) << (bb & 63).astype(np.uint64)
        j = None
        occupied = np.flatnonzero((words[word] & bit) != 0)
        if len(occupied):
            j = int(occupied[0])
        order = np.argsort(bb, kind="stable")
        sb = bb[order]
        dup = np.flatnonzero(sb[1:] == sb[:-1])
        if len(dup):
            j_in = int(order[1:][dup].min())
            j = j_in if j is None else min(j, j_in)
        if j is not None:
            j_abs = lo + j
            return _first_of_box(x, y, boxes, int(bb[j]), j_abs - 1), j_abs
        np.bitwise_or.at(words, word, bit)
    raise PrecisionError("pigeonhole scan exhausted without a collision")


def _collision_2d_dict(x: float, y: float, boxes: int) -> tuple[int, int]:
    """Sequential scan fallback for box grids too large for the bitmap."""
    floor = math.floor
    seen: dict[int, int] = {}
    for k in range(boxes * boxes + 1):
        kx = k * x
        ky = k * y
        bx = int((kx - floor(kx)) * boxes)
        if bx >= boxes:
            bx = boxes - 1
        by = int((ky - floor(ky)) * boxes)
        if by >= boxes:
            by = boxes - 1
        b = bx * boxes + by
        if b in seen:
            return seen[b], k
        seen[b] = k
    raise PrecisionError("pigeonhole scan exhausted without a collision")


def dirichlet_2d(x: float, y: float, eps: float) -> DirichletApproximant:
    """Simultaneous approximation: m >= 1 and integers nx, ny with
    max(|m x - nx|, |m y - ny|) < eps.

    Pigeonhole over a B x B grid of boxes on the fractional-part square,
    B = floor(1/eps) + 1, scanning k = 0 .. B^2 and stopping at the first
    box collision (i, j); the witness is m = j - i.  For generic irrational
    pairs the collision arrives after roughly eps^-2 steps, so the scan is
    vectorized while the witness stays identical to the sequential one.
    The witness is verified after the scan; drift raises PrecisionError.
    """
    x = float(x)
    y = float(y)
    eps = float(eps)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise GuardError(f"inputs must be finite, got ({x!r}, {y!r})")
    if not (eps >= EPS_FLOOR_2D):
        raise GuardError(f"eps must be >= {EPS_FLOOR_2D}, got {eps}")
    floor = math.floor
    # a collision pair straddling box boundaries can miss eps by an ulp;
    # the scan-first-hit structure cannot skip it, so rerun on a finer
    # grid instead (halving the box width conclusively clears the bound)
    base = int(1.0 / eps) + 1
    for attempt in range(3):
        boxes = base << attempt
        if boxes * boxes <= _BITMAP_MAX_BITS:
            i, k = _collision_2d_vector(x, y, boxes)
        else:
            i, k = _collision_2d_dict(x, y, boxes)
        m = k - i
        nx = floor(k * x) - floor(i * x)
        ny = floor(k * y) - floor(i * y)
        ex = abs(m * x - nx)
        ey = abs(m * y - ny)
        if ex < eps and ey < eps:
            return DirichletApproximant(m=m, nx=nx, ny=ny, err_x=ex, err_y=ey)
    raise PrecisionError(
        f"pigeonhole witness m={m} misses the bound: "
        f"errors ({ex}, {ey}) vs eps={eps}"
    )


def shape_to_vertex(t: ShapeTriple) -> PlaneVertex:
    """Place the largest side of t on the segment (0,0)-(1,0); return the
    apex.  With b' = b/c, a' = a/c the apex is x = (1 + b'^2 - a'^2)/2 and
    y = sqrt(b'^2 - x^2), computed here in the factored Heron form to avoid
    cancellation for thin shapes."""
    ap = t.a / t.c
    bp = t.b / t.c
    x = (1.0 + bp * bp - ap * ap) / 2.0
    prod = (1.0 + bp + ap) * (1.0 + bp - ap) * (1.0 - bp + ap) * (ap + bp - 1.0)
    if prod <= 0.0:
        if prod < -1e-15:
            raise ValueError(f"{t} is not a valid triangle shape")
        raise GuardError(f"{t} is degenerate-adjacent; apex height underflows")
    return PlaneVertex(x, math.sqrt(prod) / 2.0)


def approximate_shape(target: ShapeTriple, eps: float) -> LatticeTriangle:
    """Lattice triangle whose normalized shape is within eps of target
    (Euclidean distance on the sorted normalized side triples).

    Scans the ray of the unit-base placement: with (x, y) the apex from
    shape_to_vertex, the candidates are (0,0), (m,0), (rint(m x), rint(m y))
    for m = 1, 2, ..., in windows that double up to _SCAN_BLOCK.  Rows with
    a zero apex height are degenerate and skipped; the rest are filtered by
    their float distance and checked in order of m against the exact key's
    shape.  Returns the first candidate that passes, i.e. the smallest base
    on the ray.  Raises PrecisionError once m reaches _MAX_BASE, the bound
    that keeps every squared side exact in float64."""
    eps = float(eps)
    if not (eps >= EPS_FLOOR_SHAPE):
        raise GuardError(f"eps must be >= {EPS_FLOOR_SHAPE}, got {eps}")
    apex = shape_to_vertex(target)
    goal = np.array(target.triple).reshape(3, 1)
    # the filter runs on unreduced sides and may differ from the verified
    # distance in the last bits; the slack keeps it from dropping a row
    # the verification would accept, so the first verified m is minimal
    loose = eps * (1.0 + 1e-9)
    lo, width = 1, 64
    while lo < _MAX_BASE:
        m = np.arange(lo, min(lo + width, _MAX_BASE), dtype=np.float64)
        lo += width
        width = min(2 * width, _SCAN_BLOCK)
        cx = np.rint(m * apex.x)
        cy = np.rint(m * apex.y)
        keep = cy != 0.0
        m, cx, cy = m[keep], cx[keep], cy[keep]
        sides = np.sort(
            np.stack(normalized_sides(cx * cx + cy * cy, (m - cx) ** 2 + cy * cy, m * m)),
            axis=0,
        )
        dist = np.sqrt(np.square(sides - goal).sum(axis=0))
        for i in np.flatnonzero(dist < loose):
            cand = LatticeTriangle(
                LatticePoint(0, 0),
                LatticePoint(int(m[i]), 0),
                LatticePoint(int(cx[i]), int(cy[i])),
            )
            if shape_of(similarity_key(cand)).distance_to(target) < eps:
                return cand
    raise PrecisionError(
        f"no lattice approximant within {eps} of {target} with base below {_MAX_BASE}"
    )


def equilateral_approximant(eps: float) -> LatticeTriangle:
    """Isosceles lattice triangle (0,0), (2m,0), (m,n) with |m*sqrt(3) - n|
    < eps; its shape tends to equilateral as eps -> 0 even though no exact
    equilateral lattice triangle exists."""
    eps = float(eps)
    if not (eps >= EPS_FLOOR_SHAPE):
        raise GuardError(f"eps must be >= {EPS_FLOOR_SHAPE}, got {eps}")
    m, n = dirichlet_1d(math.sqrt(3.0), eps)
    return LatticeTriangle(
        LatticePoint(0, 0), LatticePoint(2 * m, 0), LatticePoint(m, n)
    )


def weyl_sequence(x: float, count: int) -> np.ndarray:
    """Fractional parts {x}, {2x}, ..., {count*x} as a float64 array."""
    x = float(x)
    if not math.isfinite(x):
        raise GuardError(f"x must be finite, got {x!r}")
    count = int(count)
    if count < 1:
        raise GuardError(f"count must be >= 1, got {count}")
    k = np.arange(1, count + 1, dtype=np.float64)
    return np.mod(k * x, 1.0)


def star_discrepancy(seq) -> float:
    """Star discrepancy of points in [0, 1): for sorted s_(1) <= ... <= s_(n),
    D* = max_i max(i/n - s_(i), s_(i) - (i-1)/n)."""
    arr = np.asarray(seq, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise GuardError("sequence must be a nonempty 1-D array")
    if np.any(~np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr >= 1.0):
        raise GuardError("sequence values must lie in [0, 1)")
    s = np.sort(arr)
    n = s.size
    i = np.arange(1, n + 1, dtype=np.float64)
    return float(np.maximum(i / n - s, s - (i - 1.0) / n).max())
