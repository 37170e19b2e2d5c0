"""Dirichlet approximants, shape realization, Weyl discrepancy."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trimoduli as tm
from test_acceptance import _target_grid
from trimoduli.diophantine import (
    EPS_FLOOR_1D,
    EPS_FLOOR_2D,
    EPS_FLOOR_SHAPE,
    MAX_WEYL_COUNT,
    DirichletApproximant,
    PlaneVertex,
    shape_to_vertex,
)
from trimoduli.moduli import normalized_sides

# the (x, y) cases of TestDirichlet2D.test_witness_is_smallest
DIRICHLET_CASES = [
    (math.sqrt(2.0), math.sqrt(3.0)),
    (math.sqrt(2.0), math.e),
    (math.pi, -2.73),
    (0.01, 1.0 / 7.0),
]


def _passes(m, x, eps):
    """The verification a Dirichlet witness promises: n = round(m x) with
    the exact residual of Fraction(x) and the float residual both < eps."""
    n = round(m * Fraction(x))
    return abs(m * Fraction(x) - n) < eps and abs(m * x - n) < eps


class TestDirichlet1D:
    def test_half_is_exact(self):
        m, n = tm.dirichlet_1d(0.5, 0.4)
        assert (m, n) == (2, 1)
        assert m * 0.5 - n == 0.0

    def test_one_seventh(self):
        m, n = tm.dirichlet_1d(1.0 / 7.0, 0.05)
        assert (m, n) == (7, 1)

    def test_sqrt3_hits_continued_fraction_floor(self):
        # denominators of the convergents of sqrt(3) are 1, 1, 3, 4, 11,
        # 15, 41, 56, 153, 209, 571, 780; best-approximation theory says
        # no m < 780 can get within 1e-3, so the scan must land exactly there
        m, n = tm.dirichlet_1d(math.sqrt(3.0), 1e-3)
        assert (m, n) == (780, 1351)
        assert abs(m * math.sqrt(3.0) - n) < 1e-3

    @given(st.floats(min_value=-50.0, max_value=50.0), st.sampled_from([0.2, 0.05, 0.01]))
    @settings(max_examples=120, deadline=None)
    def test_postcondition(self, x, eps):
        m, n = tm.dirichlet_1d(x, eps)
        assert m >= 1
        assert abs(m * x - n) < eps

    @pytest.mark.parametrize("x", [math.sqrt(2.0), math.sqrt(3.0), math.pi, 1.0 / 7.0, 0.01, -2.73])
    @pytest.mark.parametrize("eps", [0.2, 0.05, 0.01, 1e-3])
    def test_witness_is_smallest(self, x, eps):
        m, n = tm.dirichlet_1d(x, eps)
        assert _passes(m, x, eps) and n == round(m * Fraction(x))
        assert not any(_passes(k, x, eps) for k in range(1, m))

    def test_pi_below_float_resolution(self):
        # the float residual of this witness reads 0.0; the exact one is 3.5e-9
        assert tm.dirichlet_1d(math.pi, 1e-8) == (78256779, 245850922)

    def test_eps_floor_is_verified_exactly(self):
        m, n = tm.dirichlet_1d(math.pi, EPS_FLOOR_1D)
        assert abs(m * Fraction(math.pi) - n) < EPS_FLOOR_1D

    def test_guards(self):
        with pytest.raises(tm.GuardError):
            tm.dirichlet_1d(float("nan"), 0.1)
        with pytest.raises(tm.GuardError):
            tm.dirichlet_1d(0.5, EPS_FLOOR_1D / 2)


class TestDirichlet2D:
    def test_dyadic_is_exact(self):
        a = tm.dirichlet_2d(0.25, 0.75, 0.1)
        assert (a.m, a.nx, a.ny) == (4, 1, 3)
        assert a.err_x == 0.0 and a.err_y == 0.0

    def test_equal_coordinates_share_error(self):
        # x == y forces identical residuals; 1e-5 is EPS_FLOOR_2D
        a = tm.dirichlet_2d(math.sqrt(3.0), math.sqrt(3.0), 1e-5)
        assert a.err_x == a.err_y < 1e-5
        assert a.m == 40545

    def test_postcondition_simultaneous(self):
        x, y = math.sqrt(2.0), math.e
        a = tm.dirichlet_2d(x, y, 1e-3)
        assert abs(a.m * x - a.nx) < 1e-3
        assert abs(a.m * y - a.ny) < 1e-3

    @pytest.mark.parametrize(
        "x, y",
        [
            (math.sqrt(2.0), math.sqrt(3.0)),
            (math.sqrt(2.0), math.e),
            (math.pi, -2.73),
            (0.01, 1.0 / 7.0),
        ],
    )
    @pytest.mark.parametrize("eps", [1e-2, 1e-3])
    def test_witness_is_smallest(self, x, y, eps):
        a = tm.dirichlet_2d(x, y, eps)
        assert _passes(a.m, x, eps) and _passes(a.m, y, eps)
        assert (a.nx, a.ny) == (round(a.m * Fraction(x)), round(a.m * Fraction(y)))
        # a float screen far looser than its rounding error, then the exact
        # verification, over every shorter multiplier
        k = np.arange(1, a.m, dtype=np.float64)
        rx = np.abs(np.remainder(k * x + 0.5, 1.0) - 0.5)
        ry = np.abs(np.remainder(k * y + 0.5, 1.0) - 0.5)
        for j in np.flatnonzero((rx < eps + 1e-6) & (ry < eps + 1e-6)) + 1:
            assert not (_passes(int(j), x, eps) and _passes(int(j), y, eps))

    def test_guards(self):
        with pytest.raises(tm.GuardError):
            tm.dirichlet_2d(0.5, float("inf"), 0.1)
        with pytest.raises(tm.GuardError):
            tm.dirichlet_2d(0.5, 0.5, EPS_FLOOR_2D / 2)
        # m * x overflows float64 from m = 2 on
        with pytest.raises(tm.GuardError):
            tm.dirichlet_2d(1e308, 0.5, 1e-3)

    def test_approximant_validation(self):
        with pytest.raises(ValueError):
            DirichletApproximant(0, 1, 1, 0.0, 0.0)
        with pytest.raises(ValueError):
            DirichletApproximant(1, 1, 1, -0.1, 0.0)


class TestShapeToVertex:
    def test_3_4_5(self):
        v = shape_to_vertex(tm.ShapeTriple(0.5, 4.0 / 6.0, 5.0 / 6.0))
        assert v.x == pytest.approx(0.64, abs=1e-15)
        assert v.y == pytest.approx(0.48, abs=1e-15)

    def test_equilateral(self):
        v = shape_to_vertex(tm.ShapeTriple(2.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0))
        assert v.x == 0.5
        assert v.y == math.sqrt(3.0) / 2.0

    @given(
        st.floats(min_value=0.15, max_value=0.66),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200)
    def test_round_trip(self, a, t):
        # rebuild the shape from the unit-base triangle the vertex defines
        b = a + t * (0.98 - a)
        c = 2.0 - a - b
        if not (a <= b <= c < 0.98 and a + b - c > 0.02):
            return
        s = tm.ShapeTriple(a, b, c)
        v = shape_to_vertex(s)
        base = c  # the longest side is rescaled to the unit base
        sides = sorted(
            (
                math.hypot(v.x - 1.0, v.y) * base,
                math.hypot(v.x, v.y) * base,
                base,
            )
        )
        assert sides[0] == pytest.approx(a, abs=1e-12)
        assert sides[1] == pytest.approx(b, abs=1e-12)
        assert sides[2] == pytest.approx(c, abs=1e-12)

    def test_vertex_validation(self):
        with pytest.raises(ValueError):
            PlaneVertex(0.5, 0.0)


class TestApproximateShape:
    def test_3_4_5_postcondition(self):
        target = tm.ShapeTriple(0.5, 4.0 / 6.0, 5.0 / 6.0)
        tri = tm.approximate_shape(target, 1e-3)
        got = tm.shape_of(tm.similarity_key(tri))
        assert target.distance_to(got) < 1e-3

    def test_exact_lattice_shape_is_instant(self):
        # a right isoceles target is realizable exactly
        s = tm.shape_of(tm.SimilarityKey(1, 1, 2))
        tri = tm.approximate_shape(s, 1e-4)
        assert s.distance_to(tm.shape_of(tm.similarity_key(tri))) < 1e-4

    def test_needle_shape(self):
        s = tm.ShapeTriple(0.2, 0.9, 0.9)
        tri = tm.approximate_shape(s, 1e-3)
        assert s.distance_to(tm.shape_of(tm.similarity_key(tri))) < 1e-3

    @pytest.mark.parametrize(
        "target, eps, vertices",
        [
            (tm.ShapeTriple(0.5, 4.0 / 6.0, 5.0 / 6.0), 1e-3, [(0, 0), (25, 0), (16, 12)]),
            (tm.shape_of(tm.SimilarityKey(1, 1, 2)), 1e-4, [(0, 0), (2, 0), (1, 1)]),
        ],
    )
    def test_smallest_witness_pinned(self, target, eps, vertices):
        tri = tm.approximate_shape(target, eps)
        assert [(p.x, p.y) for p in tri.vertices] == vertices

    def test_witness_is_smallest_base_on_the_ray(self):
        # scalar re-derivation of the ray: no shorter base m' passes the
        # same verification the witness passed
        eps = 1e-3
        for target in _target_grid():
            tri = tm.approximate_shape(target, eps)
            apex = shape_to_vertex(target)
            m = tri.b.x
            assert (tri.a, tri.b.y) == (tm.LatticePoint(0, 0), 0)
            assert (tri.c.x, tri.c.y) == (round(m * apex.x), round(m * apex.y))
            for k in range(1, m):
                cy = round(k * apex.y)
                if cy == 0:
                    continue
                cand = tm.LatticeTriangle(
                    tm.LatticePoint(0, 0),
                    tm.LatticePoint(k, 0),
                    tm.LatticePoint(round(k * apex.x), cy),
                )
                assert not tm.shape_of(tm.similarity_key(cand)).distance_to(target) < eps

    def test_grid_finishes_at_the_eps_floor(self):
        # the guard admits EPS_FLOOR_SHAPE, so every c09 target must finish there
        for target in _target_grid():
            tri = tm.approximate_shape(target, EPS_FLOOR_SHAPE)
            assert target.distance_to(tm.shape_of(tm.similarity_key(tri))) < EPS_FLOOR_SHAPE

    def test_too_thin_target_gives_up(self):
        # apex height ~7e-13 rounds to 0 for every base below the cap
        s = tm.ShapeTriple(1e-8, (2.0 - 1e-8) / 2.0, (2.0 - 1e-8) / 2.0)
        with pytest.raises(tm.PrecisionError):
            tm.approximate_shape(s, 1e-3)

    def test_guards(self):
        s = tm.ShapeTriple(2.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0)
        with pytest.raises(tm.GuardError):
            tm.approximate_shape(s, EPS_FLOOR_SHAPE / 2)


def _reference_windows(stop):
    """m = 1, ..., stop - 1 in float64 windows doubling from 64 to 2^16."""
    lo, width = 1, 64
    while lo < stop:
        hi = min(lo + width, stop)
        yield np.arange(lo, hi, dtype=np.float64)
        lo, width = hi, min(2 * width, 1 << 16)


def _reference_approximate_shape(target, eps):
    """The shape scan with a stack-and-sort window filter: degenerate rows
    compressed away in every window, the three sides stacked and sorted
    with np.sort, then the same exact verification."""
    apex = shape_to_vertex(target)
    goal = np.array(target.triple).reshape(3, 1)
    for m in _reference_windows(1 << 24):
        cx = np.rint(m * apex.x)
        cy = np.rint(m * apex.y)
        keep = cy != 0.0
        m, cx, cy = m[keep], cx[keep], cy[keep]
        sides = np.sort(
            np.stack(normalized_sides(cx * cx + cy * cy, (m - cx) ** 2 + cy * cy, m * m)),
            axis=0,
        )
        dist = np.sqrt(np.square(sides - goal).sum(axis=0))
        for i in np.flatnonzero(dist < eps * (1.0 + 1e-9)):
            cand = tm.LatticeTriangle(
                tm.LatticePoint(0, 0),
                tm.LatticePoint(int(m[i]), 0),
                tm.LatticePoint(int(cx[i]), int(cy[i])),
            )
            if tm.shape_of(tm.similarity_key(cand)).distance_to(target) < eps:
                return cand
    raise tm.PrecisionError(f"no approximant for {target}")


def _reference_dirichlet_2d(x, y, eps):
    """The 2-D scan with the joint screen: x and y residuals both tested
    over the whole window, then the same exact verification."""
    fx, fy = math.fmod(x, 1.0), math.fmod(y, 1.0)
    for m in _reference_windows((int(1.0 / eps) + 1) ** 2 + 1):
        tol = eps + m[-1] * 2.0**-52
        mx, my = m * fx, m * fy
        near = (np.abs(mx - np.rint(mx)) < tol) & (np.abs(my - np.rint(my)) < tol)
        for k in m[near]:
            k = int(k)
            if _passes(k, x, eps) and _passes(k, y, eps):
                return k, round(k * Fraction(x)), round(k * Fraction(y))
    raise tm.PrecisionError(f"no witness for ({x}, {y})")


def _random_shapes(count, seed):
    """Seeded shapes spread over the sorted region, kept clear of the
    degenerate edge."""
    rng = np.random.default_rng(seed)
    shapes = []
    while len(shapes) < count:
        a, b = 0.99 * rng.random(2)
        sides = sorted((a, b, 2.0 - a - b))
        if sides[0] > 0.02 and sides[2] < 0.98 and sides[0] + sides[1] > sides[2] + 0.01:
            shapes.append(tm.ShapeTriple(*sides))
    return shapes


def _vertices(tri):
    return [(p.x, p.y) for p in tri.vertices]


class TestScanReferences:
    """The window filters against their stack-and-sort and joint-screen
    references: the same witnesses, vertex for vertex."""

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
    def test_grid_matches_reference(self, eps):
        for target in _target_grid():
            got = tm.approximate_shape(target, eps)
            assert _vertices(got) == _vertices(_reference_approximate_shape(target, eps))

    def test_random_shapes_match_reference(self):
        for target in _random_shapes(300, 20261021):
            got = tm.approximate_shape(target, 1e-3)
            assert _vertices(got) == _vertices(_reference_approximate_shape(target, 1e-3))

    @pytest.mark.parametrize(
        "x, y, eps",
        [(x, y, eps) for eps in (1e-2, 1e-3) for x, y in DIRICHLET_CASES]
        + [(math.sqrt(2.0), math.sqrt(3.0), 1e-4)],
    )
    def test_dirichlet_2d_matches_reference(self, x, y, eps):
        a = tm.dirichlet_2d(x, y, eps)
        assert (a.m, a.nx, a.ny) == _reference_dirichlet_2d(x, y, eps)

    @pytest.mark.parametrize("width", [1, 7])
    def test_window_split_does_not_change_witnesses(self, monkeypatch, width):
        grid = _target_grid()
        want = [_vertices(tm.approximate_shape(t, 1e-3)) for t in grid]
        monkeypatch.setattr("trimoduli.diophantine._FIRST_WINDOW", width)
        assert [_vertices(tm.approximate_shape(t, 1e-3)) for t in grid] == want


class TestEquilateralApproximant:
    """approximate_shape on the equilateral target, which no lattice
    triangle realizes exactly."""

    EQUI = tm.ShapeTriple(2.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0)

    def test_coarse_witness(self):
        # m = 1 already lands within 0.5: the right isosceles (1, 1, 2)
        tri = tm.approximate_shape(self.EQUI, 0.5)
        assert [(p.x, p.y) for p in tri.vertices] == [(0, 0), (1, 0), (0, 1)]
        assert tm.similarity_key(tri).triple == (1, 1, 2)

    def test_distance_shrinks_with_eps(self):
        dists = []
        for eps in (0.5, 0.05, 0.005):
            tri = tm.approximate_shape(self.EQUI, eps)
            d = self.EQUI.distance_to(tm.shape_of(tm.similarity_key(tri)))
            assert d < eps
            dists.append(d)
        assert dists[0] > dists[1] > dists[2]


class TestWeyl:
    def test_sequence_values(self):
        s = tm.weyl_sequence(math.sqrt(2.0), 4)
        expected = [math.fmod(k * math.sqrt(2.0), 1.0) for k in range(1, 5)]
        assert np.allclose(s, expected, atol=1e-15)
        assert len(s) == 4

    @pytest.mark.parametrize("seq", [["0.5", "0.25"], [False, False]], ids=["str", "bool"])
    def test_star_discrepancy_rejects_values_that_are_not_real(self, seq):
        with pytest.raises(tm.GuardError):
            tm.star_discrepancy(seq)

    def test_star_discrepancy_single_point(self):
        assert tm.star_discrepancy(np.array([0.5])) == 0.5
        assert tm.star_discrepancy(np.array([0.7])) == pytest.approx(0.7, abs=1e-15)

    def test_star_discrepancy_centered_grid(self):
        s = np.array([1 / 8, 3 / 8, 5 / 8, 7 / 8])
        assert tm.star_discrepancy(s) == 0.125

    def test_star_discrepancy_against_grid_sup(self):
        rng = np.random.default_rng(7)
        s = rng.random(200)
        d = tm.star_discrepancy(s)
        grid = np.linspace(0.0, 1.0, 20001)
        counts = np.searchsorted(np.sort(s), grid, side="right")
        sup = np.max(np.abs(counts / len(s) - grid))
        assert sup <= d + 1e-12
        assert d <= sup + 2.0 / 20000

    def test_weyl_sqrt3_is_well_distributed(self):
        d = tm.star_discrepancy(tm.weyl_sequence(math.sqrt(3.0), 100_000))
        assert d < 0.01

    def test_guards(self):
        with pytest.raises(tm.GuardError):
            tm.star_discrepancy(np.array([]))
        with pytest.raises(tm.GuardError):
            tm.star_discrepancy(np.array([1.5]))
        with pytest.raises(tm.GuardError):
            tm.weyl_sequence(math.sqrt(2.0), 0)
        with pytest.raises(tm.GuardError):
            tm.weyl_sequence(math.sqrt(2.0), 3.9)
        # counts past what can be allocated; at sys.maxsize the point index
        # would overflow int64 and silently yield no points
        for count in (MAX_WEYL_COUNT + 1, sys.maxsize):
            with pytest.raises(tm.GuardError):
                tm.weyl_sequence(math.sqrt(2.0), count)
        # k * x overflows float64 from k = 2 on, which would give NaN points
        with pytest.raises(tm.GuardError):
            tm.weyl_sequence(1e308, 3)
