"""Dirichlet approximation and lattice approximants of shapes.

Each search returns the smallest multiplier whose witness passes
verification.  The 1-D approximator walks the continued-fraction
convergents of x, which by Legendre's best-approximation property contain
the smallest m with |m x - n| < eps.  The 2-D approximator scans
m = 1, 2, ... in order; pigeonhole on the fractional-part square only
supplies the bound m <= (floor(1/eps) + 1)^2 that sets EPS_FLOOR_2D.
Each window of the scan screens the x residuals first and tests the y
residual only on the rows that pass, with the same tolerance.

Shape approximants come from the same kind of scan: place the target on
the unit base, scale by m = 1, 2, ... and round the apex to the nearest
lattice point.  The first m whose triangle lands within eps is returned,
so the witness is the smallest base along that ray.  The filter sorts
each row's three sides by min/max selection.

Both scans run over windows of m that start at _FIRST_WINDOW = 256 rows,
which holds every c09 grid witness at eps = 1e-3, and double up to
_SCAN_BLOCK = 2^16.  Every window reuses one pair of scratch arrays.

Dirichlet witnesses are verified both exactly, on the dyadic rational
Fraction(x), and in float; shape witnesses on their exact similarity key.
A search that ends without a verified witness raises PrecisionError
rather than returning a wrong answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import GuardError, PrecisionError, check_int_range, check_real
from .lattice import LatticePoint, LatticeTriangle, similarity_key
from .moduli import ShapeTriple, normalized_sides, shape_of

EPS_FLOOR_1D = 1e-12
# (floor(1/eps) + 1)^2 ~ 1e10 candidates at most, a few minutes of scan
EPS_FLOOR_2D = 1e-5
EPS_FLOOR_SHAPE = 1e-6
# Largest base approximate_shape tries: squared sides stay below 2 m^2 <=
# 2^49, so they and the rounded apex are exact in float64.
_MAX_BASE = 1 << 24
# Most points weyl_sequence returns: 2^27 float64 values are 1 GiB
MAX_WEYL_COUNT = 1 << 27


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
        for name in ("x", "y"):
            object.__setattr__(self, name, check_real(getattr(self, name), name))
        if self.y <= 0.0:
            raise ValueError(f"apex must lie strictly above the base, got y={self.y}")


def _witness(m: int, x: float, eps: float) -> tuple[int, Fraction] | None:
    """(n, |m X - n|) with n = round(m X) for the dyadic rational
    X = Fraction(x), when both the exact residual and the float residual
    |m*x - n| are below eps; None otherwise."""
    mx = m * Fraction(x)
    n = round(mx)
    err = abs(mx - n)
    if err < eps and abs(m * x - n) < eps:
        return n, err
    return None


def dirichlet_1d(x: float, eps: float) -> tuple[int, int]:
    """Smallest m >= 1, with n = round(m x), such that |m x - n| < eps both
    exactly and in float.

    Walks the continued-fraction convergents of x in order, O(log 1/eps)
    steps, and returns the first denominator that passes both checks.  By
    the best-approximation property of convergents (Legendre), every m
    below the first denominator with an exact residual under eps misses
    eps, so that denominator is the smallest m; only when its float
    residual misses eps by rounding does the walk go on to a later one.
    The last convergent is x itself with a zero residual, so the walk
    always ends."""
    x = check_real(x, "x")
    eps = check_real(eps, "eps", EPS_FLOOR_1D)
    # q runs over the convergent denominators q_0 = 1, q_1, ... of X
    X = Fraction(x)
    q_prev, q, rest = 0, 1, X - math.floor(X)
    while not (found := _witness(q, x, eps)):
        z = 1 / rest
        a = math.floor(z)
        rest = z - a
        q_prev, q = q, a * q + q_prev
    return q, found[0]


# The first window covers the c09 grid's witnesses at eps = 1e-3 (base m
# at most 215), so those targets take one window each
_FIRST_WINDOW = 256
_SCAN_BLOCK = 1 << 16


def _windows(stop: int):
    """(m, u, v) for m = 1, 2, ..., stop - 1 in order, as float64 windows
    that double from _FIRST_WINDOW up to _SCAN_BLOCK; u and v are scratch
    arrays of m's length.  Every window reuses one scratch pair, regrown as
    the windows double: fresh full-width temporaries in each window would
    be handed back to the OS when freed and faulted in again."""
    lo, width = 1, _FIRST_WINDOW
    scratch = np.empty((2, 0))
    while lo < stop:
        hi = min(lo + width, stop)
        if scratch.shape[1] < hi - lo:
            scratch = np.empty((2, hi - lo))
        yield np.arange(lo, hi, dtype=np.float64), *scratch[:, : hi - lo]
        lo, width = hi, min(2 * width, _SCAN_BLOCK)


def dirichlet_2d(x: float, y: float, eps: float) -> DirichletApproximant:
    """Simultaneous approximation: the smallest m >= 1, with nx, ny the
    nearest integers to m x, m y, such that max(|m x - nx|, |m y - ny|) < eps
    both exactly and in float.

    Scans m = 1, 2, ... in vectorized windows on the fractional parts of x
    and y, filters on the float residuals and verifies the survivors in
    order of m.  Pigeonhole on B x B boxes, B = floor(1/eps) + 1, gives an
    exact witness with m <= B^2; finding none there raises PrecisionError.
    Raises GuardError when m x or m y could overflow float64 for such m."""
    x = check_real(x, "x")
    y = check_real(y, "y")
    eps = check_real(eps, "eps", EPS_FLOOR_2D)
    stop = (int(1.0 / eps) + 1) ** 2 + 1
    if not math.isfinite(max(abs(x), abs(y)) * stop):
        raise GuardError(
            f"m * x or m * y overflows float64 for m <= {stop - 1}: ({x!r}, {y!r})"
        )
    fx = math.fmod(x, 1.0)  # exact, and |fx| < 1
    fy = math.fmod(y, 1.0)
    for m, rx, u in _windows(stop):
        # m * f is off by at most m * 2^-53, so this tolerance never drops
        # a row whose exact residual is below eps
        tol = eps + m[-1] * 2.0**-52
        np.multiply(m, fx, out=rx)
        rx -= np.rint(rx, out=u)
        near = np.flatnonzero(np.abs(rx, out=rx) < tol)
        ry = m[near] * fy
        near = near[np.abs(ry - np.rint(ry)) < tol]
        for k in m[near]:
            k = int(k)
            wx = _witness(k, x, eps)
            wy = _witness(k, y, eps)
            if wx and wy:
                return DirichletApproximant(
                    m=k, nx=wx[0], ny=wy[0], err_x=float(wx[1]), err_y=float(wy[1])
                )
    raise PrecisionError(
        f"no verified witness with m <= {stop - 1} for ({x!r}, {y!r}), eps={eps}"
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
    for m = 1, 2, ... from _windows.  Rows with a zero apex height are
    degenerate and dropped (only in windows that hold some); the rest are
    filtered by their float distance and checked in order of m against the
    exact key's shape.  Returns the first candidate that passes, i.e. the
    smallest base on the ray.  Raises PrecisionError once m reaches _MAX_BASE, the bound
    that keeps every squared side exact in float64."""
    eps = check_real(eps, "eps", EPS_FLOOR_SHAPE)
    apex = shape_to_vertex(target)
    ga, gb, gc = target.triple
    # the filter runs on unreduced sides and may differ from the verified
    # distance in the last bits; the slack keeps it from dropping a row
    # the verification would accept, so the first verified m is minimal
    loose = eps * (1.0 + 1e-9)
    for m, cx, cy in _windows(_MAX_BASE):
        np.rint(np.multiply(m, apex.x, out=cx), out=cx)
        np.rint(np.multiply(m, apex.y, out=cy), out=cy)
        keep = cy != 0.0
        if not keep.all():
            m, cx, cy = m[keep], cx[keep], cy[keep]
        cy2 = cy * cy
        a, b, c = normalized_sides(cx * cx + cy2, (m - cx) ** 2 + cy2, m * m)
        # min/max selection gives the sorted sides as the same floats a
        # sort would, and the squares add in sorted order, so the slack
        # above still covers every difference from the verified distance
        ab_lo = np.minimum(a, b)
        ab_hi = np.maximum(a, b)
        lo = np.minimum(ab_lo, c)
        mid = np.maximum(ab_lo, np.minimum(ab_hi, c))
        hi = np.maximum(ab_hi, c)
        lo -= ga
        mid -= gb
        hi -= gc
        dist = lo * lo
        dist += mid * mid
        dist += hi * hi
        for i in np.flatnonzero(np.sqrt(dist, out=dist) < loose):
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


def weyl_sequence(x: float, count: int) -> np.ndarray:
    """Fractional parts {x}, {2x}, ..., {count*x} as a float64 array.
    Raises GuardError when count*x overflows float64."""
    x = check_real(x, "x")
    count = check_int_range(count, "count", 1, MAX_WEYL_COUNT)
    if not math.isfinite(count * abs(x)):
        raise GuardError(f"count * x overflows float64: count={count}, x={x!r}")
    k = np.arange(1, count + 1, dtype=np.float64)
    k *= x
    return np.mod(k, 1.0, out=k)


def star_discrepancy(seq) -> float:
    """Star discrepancy of points in [0, 1): for sorted s_(1) <= ... <= s_(n),
    D* = max_i max(i/n - s_(i), s_(i) - (i-1)/n)."""
    arr = np.asarray(seq)
    if arr.dtype.kind not in "iuf":
        raise GuardError(f"sequence must hold real numbers, got dtype {arr.dtype}")
    arr = arr.astype(np.float64, copy=False)
    if arr.ndim != 1 or arr.size == 0:
        raise GuardError("sequence must be a nonempty 1-D array")
    if np.any(~np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr >= 1.0):
        raise GuardError("sequence values must lie in [0, 1)")
    s = np.sort(arr)
    n = s.size
    i = np.arange(1, n + 1, dtype=np.float64)
    return float(np.maximum(i / n - s, s - (i - 1.0) / n).max())
