"""Exact integer geometry: predicates, keys, classification."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trimoduli as tm

coord = st.integers(min_value=-50, max_value=50)


def _tri_points(ax, ay, bx, by, cx, cy):
    return (
        tm.LatticePoint(ax, ay),
        tm.LatticePoint(bx, by),
        tm.LatticePoint(cx, cy),
    )


triangles = st.tuples(coord, coord, coord, coord, coord, coord).filter(
    lambda t: (t[2] - t[0]) * (t[5] - t[1]) - (t[3] - t[1]) * (t[4] - t[0]) != 0
)


class TestPoints:
    def test_accepts_integer_like(self):
        import numpy as np

        p = tm.LatticePoint(np.int64(3), np.int64(-4))
        assert (p.x, p.y) == (3, -4) and type(p.x) is int

    def test_rejects_floats(self):
        with pytest.raises(tm.GuardError):
            tm.LatticePoint(1.5, 0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: tm.LatticePoint(True, False),
            lambda: tm.SimilarityKey(True, True, 2),
            lambda: tm.WeightedShapeSet({(True, True, 2): 3}),
        ],
        ids=["point", "key", "weighted-set-key"],
    )
    def test_rejects_bools(self, make):
        with pytest.raises(tm.GuardError):
            make()

    def test_rejects_wide_coordinates(self):
        with pytest.raises(tm.GuardError):
            tm.LatticePoint(2**31, 0)
        tm.LatticePoint(2**31 - 1, -(2**31 - 1))  # boundary fits


class TestPredicates:
    def test_collinear_examples(self):
        a, b, c = _tri_points(0, 0, 1, 1, 2, 2)
        assert tm.cross(a, b, c) == 0
        a, b, c = _tri_points(0, 0, 1, 0, 0, 1)
        assert tm.cross(a, b, c) != 0

    def test_cross_sign(self):
        a, b, c = _tri_points(0, 0, 1, 0, 0, 1)
        assert tm.cross(a, b, c) == 1
        assert tm.cross(a, c, b) == -1

    def test_triangle_rejects_degenerate(self):
        with pytest.raises(ValueError):
            tm.triangle(0, 0, 1, 1, 2, 2)
        with pytest.raises(ValueError):
            tm.triangle(0, 0, 0, 0, 1, 2)


class TestSquaredSides:
    """The sorted squared sides a key is made of: reduced by similarity_key,
    checked by SimilarityKey."""

    def test_example_2_0_1_2(self):
        # gcd 1, so the key is the squared sides themselves
        assert tm.similarity_key(tm.triangle(0, 0, 2, 0, 1, 2)).triple == (4, 5, 5)

    def test_unit_right(self):
        assert tm.similarity_key(tm.triangle(0, 0, 1, 0, 0, 1)).triple == (1, 1, 2)

    def test_requires_sorted(self):
        with pytest.raises(ValueError):
            tm.SimilarityKey(5, 4, 5)

    def test_rejects_degenerate_triple(self):
        # sides 1, 1, 2 squared: collinear configuration
        with pytest.raises(ValueError):
            tm.SimilarityKey(1, 1, 4)
        with pytest.raises(ValueError):
            tm.SimilarityKey(1, 4, 9)


class TestStrictTriangleTest:
    def test_boundary_cases(self):
        assert tm.strict_triangle_test(2, 9, 17)  # obtuse but valid
        assert not tm.strict_triangle_test(1, 1, 4)  # degenerate 1+1=2 sides
        assert not tm.strict_triangle_test(1, 4, 9)  # degenerate 1+2=3 sides
        assert tm.strict_triangle_test(1, 1, 2)

    @given(triangles)
    @settings(max_examples=200)
    def test_realized_triples_always_pass(self, t):
        tri = tm.LatticeTriangle(*_tri_points(*t))
        assert tm.strict_triangle_test(*tm.similarity_key(tri).triple)


class TestSimilarityKey:
    def test_example_3_0_m1_1(self):
        k = tm.similarity_key(tm.triangle(0, 0, 3, 0, -1, 1))
        assert k.triple == (2, 9, 17)

    def test_scaling_reduces(self):
        k = tm.similarity_key(tm.triangle(0, 0, 2, 0, 0, 2))
        assert k.triple == (1, 1, 2)

    def test_rejects_unreduced(self):
        with pytest.raises(ValueError):
            tm.SimilarityKey(2, 2, 4)

    @given(triangles, st.integers(min_value=1, max_value=5))
    @settings(max_examples=150)
    def test_invariant_under_scaling(self, t, scale):
        base = tm.LatticeTriangle(*_tri_points(*t))
        scaled = tm.LatticeTriangle(
            *(tm.LatticePoint(p.x * scale, p.y * scale) for p in base.vertices)
        )
        assert tm.similarity_key(base) == tm.similarity_key(scaled)

    @given(
        triangles,
        st.integers(min_value=-30, max_value=30),
        st.integers(min_value=-30, max_value=30),
        st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=200)
    def test_invariant_under_lattice_symmetries(self, t, dx, dy, sym):
        # the dihedral group of the square: rotations and reflections
        maps = [
            lambda x, y: (x, y),
            lambda x, y: (-y, x),
            lambda x, y: (-x, -y),
            lambda x, y: (y, -x),
            lambda x, y: (-x, y),
            lambda x, y: (x, -y),
            lambda x, y: (y, x),
            lambda x, y: (-y, -x),
        ]
        f = maps[sym]
        base = tm.LatticeTriangle(*_tri_points(*t))
        moved = tm.LatticeTriangle(
            *(
                tm.LatticePoint(f(p.x, p.y)[0] + dx, f(p.x, p.y)[1] + dy)
                for p in base.vertices
            )
        )
        assert tm.similarity_key(base) == tm.similarity_key(moved)

    @given(triangles)
    @settings(max_examples=150)
    def test_vertex_order_irrelevant(self, t):
        pts = _tri_points(*t)
        keys = {
            tm.similarity_key(tm.LatticeTriangle(*perm)).triple
            for perm in (
                (pts[0], pts[1], pts[2]),
                (pts[1], pts[2], pts[0]),
                (pts[2], pts[0], pts[1]),
                (pts[0], pts[2], pts[1]),
            )
        }
        assert len(keys) == 1


def _exported_angle_class(key) -> str:
    """The angle_class field of key's row in the CSV export."""
    row = tm.export_weighted_set(tm.WeightedShapeSet({key: 1})).splitlines()[-1]
    return row.split(",")[4]


def _dots(tri):
    """Dot products of the two edge vectors at each vertex of tri."""
    a, b, c = tri.vertices
    return [
        (b.x - a.x) * (c.x - a.x) + (b.y - a.y) * (c.y - a.y),
        (a.x - b.x) * (c.x - b.x) + (a.y - b.y) * (c.y - b.y),
        (a.x - c.x) * (b.x - c.x) + (a.y - c.y) * (b.y - c.y),
    ]


class TestClassify:
    """A key's angle class, as key_mask and the exports decide it."""

    def test_examples(self):
        assert _exported_angle_class(tm.SimilarityKey(1, 1, 2)) == "right"
        assert _exported_angle_class(tm.SimilarityKey(2, 9, 17)) == "obtuse"
        assert _exported_angle_class(tm.SimilarityKey(4, 5, 5)) == "acute"

    @given(triangles)
    @settings(max_examples=300)
    def test_right_iff_zero_dot_product(self, t):
        # independent check: a right angle means two edge vectors at some
        # vertex have exact dot product zero
        tri = tm.LatticeTriangle(*_tri_points(*t))
        is_right = _exported_angle_class(tm.similarity_key(tri)) == "right"
        assert is_right == (0 in _dots(tri))

    @given(triangles)
    @settings(max_examples=300)
    def test_obtuse_iff_negative_dot_product(self, t):
        tri = tm.LatticeTriangle(*_tri_points(*t))
        k = tm.similarity_key(tri)
        is_obtuse = bool(tm.ModuliRegion.OBTUSE_ALL.key_mask(k.p, k.q, k.r))
        assert is_obtuse == any(d < 0 for d in _dots(tri))


def test_no_equilateral_exhaustive_small_grid():
    # brute force over every triangle with vertices in [-4, 4]^2,
    # bypassing the census machinery entirely
    pts = [(x, y) for x in range(-4, 5) for y in range(-4, 5)]
    for (ax, ay), (bx, by), (cx, cy) in combinations(pts, 3):
        if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) == 0:
            continue
        p0 = (bx - ax) ** 2 + (by - ay) ** 2
        q0 = (cx - bx) ** 2 + (cy - by) ** 2
        r0 = (ax - cx) ** 2 + (ay - cy) ** 2
        assert not (p0 == q0 == r0), ((ax, ay), (bx, by), (cx, cy))


def test_reduced_triple_matches_key_path():
    assert tm.reduced_triple(8, 8, 16) == (1, 1, 2)
    assert tm.reduced_triple(17, 2, 9) == (2, 9, 17)
