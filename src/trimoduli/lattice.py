"""Exact integer geometry for lattice triangles.

Everything on the identification path runs in exact integer arithmetic:
squared side lengths, collinearity via cross products, the strict triangle
test, and the gcd-reduced similarity key.  No floats are hashed or compared
anywhere in this module.

The key fact used throughout: two lattice triangles are similar iff their
sorted squared side lengths agree up to a common rational factor, so the
gcd-reduced sorted triple of squared sides is a complete similarity
invariant (orientation and reflection included).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import check_int_range

MAX_COORD = 2**31 - 1  # input coordinates must fit in 32 bits


@dataclass(frozen=True, slots=True)
class LatticePoint:
    """A point of the integer lattice Z^2."""

    x: int
    y: int

    def __post_init__(self):
        for name in ("x", "y"):
            v = check_int_range(getattr(self, name), f"coordinate {name}", -MAX_COORD, MAX_COORD)
            object.__setattr__(self, name, v)


def cross(a: LatticePoint, b: LatticePoint, c: LatticePoint) -> int:
    """Signed cross product of the edges a->b and a->c."""
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


@dataclass(frozen=True, slots=True)
class LatticeTriangle:
    """Non-degenerate triangle with vertices on the integer lattice."""

    a: LatticePoint
    b: LatticePoint
    c: LatticePoint

    def __post_init__(self):
        # coincident vertices have a zero cross product too
        if cross(self.a, self.b, self.c) == 0:
            raise ValueError("triangle vertices are collinear")

    @property
    def vertices(self) -> tuple[LatticePoint, LatticePoint, LatticePoint]:
        return (self.a, self.b, self.c)


def strict_triangle_test(p: int, q: int, r: int) -> bool:
    """Exact test that sorted squared sides p <= q <= r bound a triangle.

    sqrt(r) < sqrt(p) + sqrt(q) is equivalent, for r >= p + q, to
    (r - p - q)^2 < 4 p q; for r < p + q it always holds.  Integer-only.
    """
    if r < p + q:
        return True
    d = r - p - q
    return d * d < 4 * p * q


@dataclass(frozen=True, slots=True)
class SimilarityKey:
    """gcd-reduced sorted squared side lengths; a complete similarity invariant."""

    p: int
    q: int
    r: int

    def __post_init__(self):
        for name in ("p", "q", "r"):
            object.__setattr__(self, name, check_int_range(getattr(self, name), name, 1, math.inf))
        p, q, r = self.p, self.q, self.r
        if not (p <= q <= r):
            raise ValueError(f"key entries must be sorted ascending, got ({p}, {q}, {r})")
        if not strict_triangle_test(p, q, r):
            raise ValueError(f"({p}, {q}, {r}) fails the strict triangle test")
        if math.gcd(p, q, r) != 1:
            raise ValueError(f"key ({p}, {q}, {r}) is not gcd-reduced")

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.p, self.q, self.r)


def reduced_triple(p0: int, q0: int, r0: int) -> tuple[int, int, int]:
    """Sort and gcd-reduce three squared side lengths.  Hot-path helper;
    performs no triangle validation."""
    p, q, r = sorted((p0, q0, r0))
    g = math.gcd(p, q, r)
    return (p // g, q // g, r // g)


def similarity_key(t: LatticeTriangle) -> SimilarityKey:
    """Similarity class of t as a reduced sorted triple of squared sides."""
    a, b, c = t.vertices
    sq = [(u.x - v.x) ** 2 + (u.y - v.y) ** 2 for u, v in ((a, b), (b, c), (c, a))]
    return SimilarityKey(*reduced_triple(*sq))


def triangle(ax: int, ay: int, bx: int, by: int, cx: int, cy: int) -> LatticeTriangle:
    """Convenience constructor from six coordinates."""
    return LatticeTriangle(LatticePoint(ax, ay), LatticePoint(bx, by), LatticePoint(cx, cy))
