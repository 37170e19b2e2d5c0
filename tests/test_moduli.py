"""Shape coordinates, closed-form measures, weighted shape sets."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trimoduli as tm
from trimoduli.moduli import (
    CHECK_ROWS,
    KEY_BOUND,
    angle_class,
    exact_sum,
    normalized_sides,
    shape_grid,
)

scipy_integrate = pytest.importorskip("scipy.integrate")


def _shoelace(vertices):
    """Exact polygon area over the rationals."""
    area = Fraction(0)
    for (x0, y0), (x1, y1) in zip(vertices, vertices[1:] + vertices[:1]):
        area += Fraction(x0) * Fraction(y1) - Fraction(x1) * Fraction(y0)
    return abs(area) / 2


class TestShapeOf:
    def test_right_isoceles(self):
        s = tm.shape_of(tm.SimilarityKey(1, 1, 2))
        assert s.a == s.b
        assert s.a == pytest.approx(2 - math.sqrt(2), abs=1e-15)
        assert s.c == pytest.approx(2 * math.sqrt(2) - 2, abs=1e-15)
        assert s.a + s.b + s.c == pytest.approx(2.0, abs=1e-15)

    def test_3_4_5_exact(self):
        # perfect squares make the normalization exact in floating point
        s = tm.shape_of(tm.SimilarityKey(9, 16, 25))
        assert s.triple == (0.5, 4.0 / 6.0, 5.0 / 6.0)

    def test_normalized_sides_scalars_match_arrays(self):
        p = np.array([1, 2, 9, 1], dtype=np.int64)
        q = np.array([1, 9, 16, 2], dtype=np.int64)
        r = np.array([2, 17, 25, 5], dtype=np.int64)
        cols = normalized_sides(p, q, r)
        for i in range(len(p)):
            s = tm.shape_of(tm.SimilarityKey(int(p[i]), int(q[i]), int(r[i])))
            assert s.triple == tuple(float(col[i]) for col in cols)

    def test_sorted_output(self):
        s = tm.shape_of(tm.SimilarityKey(2, 9, 17))
        assert s.a <= s.b <= s.c

    def test_equilateral_key_maps_to_center(self):
        # the key itself is valid even though no lattice triangle realizes it
        s = tm.shape_of(tm.SimilarityKey(1, 1, 1))
        assert s.triple == (2.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0)


class TestShapeTriple:
    def test_validation(self):
        tm.ShapeTriple(0.5, 2.0 / 3.0, 5.0 / 6.0)
        with pytest.raises(ValueError):
            tm.ShapeTriple(0.6, 0.5, 0.9)  # unsorted
        with pytest.raises(ValueError):
            tm.ShapeTriple(0.2, 0.3, 0.5)  # sum 1, not 2
        with pytest.raises(ValueError):
            tm.ShapeTriple(0.0, 1.0, 1.0)  # degenerate limits

    def test_distance_to(self):
        s = tm.ShapeTriple(0.5, 2.0 / 3.0, 5.0 / 6.0)
        assert s.distance_to(s) == 0.0
        t = tm.shape_of(tm.SimilarityKey(1, 1, 2))
        assert s.distance_to(t) == t.distance_to(s) > 0


class TestMeasures:
    def test_teich_measure_is_half(self):
        # the labeled-plane region is the triangle (1,0), (0,1), (1,1)
        assert tm.measure_teich() == 0.5
        assert _shoelace([(1, 0), (0, 1), (1, 1)]) == Fraction(1, 2)

    def test_moduli_measure_shoelace(self):
        # sorted region: triangle with vertices at the isoceles corner,
        # the equilateral point, and the degenerate corner
        exact = _shoelace(
            [(Fraction(1, 2), Fraction(1, 2)), (Fraction(2, 3), Fraction(2, 3)), (0, 1)]
        )
        assert exact == Fraction(1, 12)
        assert tm.measure_moduli() == pytest.approx(float(exact), abs=1e-15)

    def test_obtuse_measure_against_quadrature(self):
        # obtuse-at-c slice at fixed a has b in (1-a, 2(1-a)/(2-a)); the
        # three one-vertex regions are disjoint and congruent
        val, err = scipy_integrate.quad(lambda a: a * (1 - a) / (2 - a), 0, 1)
        assert err < 1e-12
        assert tm.obtuse_region_measure() == pytest.approx(3 * val, abs=1e-10)
        assert tm.obtuse_region_measure() == pytest.approx(4.5 - 6 * math.log(2), abs=1e-15)

    def test_uniform_targets(self):
        assert tm.uniform_target(tm.ModuliRegion.OBTUSE_ALL) == pytest.approx(
            9 - 12 * math.log(2), abs=1e-15
        )
        assert tm.uniform_target(tm.ModuliRegion.FULL) == 1.0


class TestRightLocus:
    def test_3_4_5_sits_on_locus(self):
        assert tm.right_locus(2.0 / 3.0) == 0.5

    def test_symmetry(self):
        # the locus equation 2 - 2a - 2b + ab = 0 is symmetric in a, b
        for b in (0.3, 0.5, 0.777):
            a = tm.right_locus(b)
            assert tm.right_locus(a) == pytest.approx(b, abs=1e-14)

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            tm.right_locus(0.0)
        with pytest.raises(ValueError):
            tm.right_locus(1.0)

    @given(st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=100)
    def test_locus_point_is_right(self, b):
        a = tm.right_locus(b)
        c = 2 - a - b
        sides = sorted((a, b, c))
        assert sides[2] ** 2 == pytest.approx(sides[0] ** 2 + sides[1] ** 2, rel=1e-12)


class TestRegions:
    def test_contains_key(self):
        def contains(region, key):
            p, q, r = (np.array([v], dtype=np.int64) for v in (key.p, key.q, key.r))
            return bool(region.key_mask(p, q, r)[0])

        obtuse = tm.ModuliRegion.OBTUSE_ALL
        assert contains(obtuse, tm.SimilarityKey(2, 9, 17))
        assert not contains(obtuse, tm.SimilarityKey(1, 1, 2))  # right
        assert not contains(obtuse, tm.SimilarityKey(4, 5, 5))  # acute
        acute = tm.ModuliRegion.ACUTE
        assert contains(acute, tm.SimilarityKey(4, 5, 5))
        assert not contains(acute, tm.SimilarityKey(1, 1, 2))
        assert contains(tm.ModuliRegion.FULL, tm.SimilarityKey(1, 1, 2))

    def test_key_mask_matches_scalar(self):
        # right (1, 1, 2), obtuse (2, 9, 17), acute (4, 5, 5), right (9, 16, 25)
        p = np.array([1, 2, 4, 9], dtype=np.int64)
        q = np.array([1, 9, 5, 16], dtype=np.int64)
        r = np.array([2, 17, 5, 25], dtype=np.int64)
        expected = {
            tm.ModuliRegion.OBTUSE_ALL: [False, True, False, False],  # r > p + q
            tm.ModuliRegion.ACUTE: [False, False, True, False],  # r < p + q
            tm.ModuliRegion.FULL: [True, True, True, True],
        }
        for region, mask in expected.items():
            assert region.key_mask(p, q, r).tolist() == mask
        # 0 acute, 1 right, 2 obtuse
        assert angle_class(p, q, r).tolist() == [1, 2, 0, 1]


class TestShapeGrid:
    @pytest.mark.parametrize("bins", [2, 7, 64])
    def test_cell_k_starts_at_k_over_bins(self, bins):
        k = np.arange(bins)
        grid = shape_grid((k / bins, (bins - 1 - k) / bins), bins)
        assert grid.dtype == np.int64
        assert np.array_equal(grid, np.fliplr(np.eye(bins, dtype=np.int64)))

    def test_one_falls_in_the_last_cell(self):
        grid = shape_grid(
            (np.array([1.0, 0.0]), np.array([1.0, 1.0])), 4, weights=np.array([3, 5])
        )
        assert grid.dtype == np.int64
        assert grid[3, 3] == 3 and grid[0, 3] == 5 and grid.sum() == 8


class TestWeightedShapeSet:
    def test_total_weight_is_exact_beyond_int64(self):
        # an int64 sum of these weights wraps, to -2^63 and to 2^63 - 3
        s = tm.WeightedShapeSet.from_columns([1, 1], [1, 1], [1, 2], [2**62, 2**62])
        assert s.total_weight == 2**63
        assert json.loads(tm.export_weighted_set(s, "json"))["total_weight"] == 2**63
        heavy = (1 << 63) - 1
        s = tm.WeightedShapeSet({(1, 1, 1): heavy, (1, 1, 2): heavy, (9, 16, 25): heavy})
        assert s.total_weight == 3 * heavy

    def test_exact_sum_across_slices(self):
        # a CHECK_ROWS slice of int64 maxima wraps an int64 sum as well
        heavy = (1 << 63) - 1
        w = np.full(2 * CHECK_ROWS + 3, heavy, dtype=np.int64)
        w[5] = -heavy - 1
        assert exact_sum(w) == (2 * CHECK_ROWS + 1) * heavy - 1
        assert exact_sum(w[:0]) == 0

    def test_from_mapping(self):
        s = tm.WeightedShapeSet({tm.SimilarityKey(1, 1, 2): 4})
        assert len(s) == 1
        assert s.total_weight == 4
        assert dict(s.items()) == {tm.SimilarityKey(1, 1, 2): 4}

    def test_from_columns_roundtrip(self):
        s = tm.WeightedShapeSet(
            {tm.SimilarityKey(1, 1, 2): 4, tm.SimilarityKey(2, 9, 17): 1}
        )
        p, q, r, w = s.columns()
        t = tm.WeightedShapeSet.from_columns(p, q, r, w)
        assert s == t

    @pytest.mark.parametrize(
        ("dtype", "kept"), [(np.int64, True), (np.int32, False)], ids=["int64", "int32"]
    )
    def test_from_columns_takes_int64_columns_and_copies_others(self, dtype, kept):
        # a contiguous int64 column is kept without a copy, so it turns
        # read-only for the caller too; any other column is copied
        cols = [np.array(col, dtype=dtype) for col in ([1, 2], [1, 9], [2, 17], [4, 1])]
        s = tm.WeightedShapeSet.from_columns(*cols)
        for col, own in zip(cols, s.columns()):
            assert np.shares_memory(col, own) is kept
            assert col.flags.writeable is not kept
        if not kept:
            cols[0][0] = 5  # the caller's copy stays writeable and the set unchanged
            assert dict(s.items()) == {
                tm.SimilarityKey(1, 1, 2): 4,
                tm.SimilarityKey(2, 9, 17): 1,
            }

    def test_from_columns_rejects_bad_rows(self):
        mk = lambda *rows: tuple(
            np.array(col, dtype=np.int64) for col in zip(*rows)
        )
        with pytest.raises(ValueError):
            tm.WeightedShapeSet.from_columns(*mk((2, 2, 4, 1)))  # gcd 2
        with pytest.raises(ValueError):
            tm.WeightedShapeSet.from_columns(*mk((2, 1, 3, 1)))  # unsorted
        with pytest.raises(ValueError):
            tm.WeightedShapeSet.from_columns(*mk((1, 1, 4, 1)))  # degenerate
        with pytest.raises(ValueError):
            tm.WeightedShapeSet.from_columns(*mk((1, 1, 2, 0)))  # zero weight
        with pytest.raises(ValueError):
            tm.WeightedShapeSet.from_columns(
                *mk((1, 1, 2, 1), (1, 1, 2, 3))
            )  # duplicate key
        with pytest.raises(tm.GuardError, match="1-D"):
            tm.WeightedShapeSet.from_columns(*[np.array([[1, 1]])] * 4)  # 2-D

    # rows (2, 2k + 3, 2k + 3) are valid and strictly increasing; the
    # checks run in slices of CHECK_ROWS rows, and a fault on either side
    # of the first slice boundary must still be found
    @staticmethod
    def _odd_rows():
        odd = 2 * np.arange(CHECK_ROWS + 8, dtype=np.int64) + 3
        return np.full(len(odd), 2), odd, np.ones(len(odd), dtype=np.int64)

    @pytest.mark.parametrize("row", [CHECK_ROWS - 1, CHECK_ROWS])
    def test_from_columns_finds_a_non_reduced_key_at_the_slice_boundary(self, row):
        p, q, w = self._odd_rows()
        assert len(tm.WeightedShapeSet.from_columns(p, q.copy(), q.copy(), w)) == len(q)
        q[row] += 1  # (2, 2k + 4, 2k + 4) stays in order but has gcd 2
        with pytest.raises(ValueError, match="not gcd-reduced"):
            tm.WeightedShapeSet.from_columns(p, q, q, w)

    def test_from_columns_finds_a_swapped_pair_across_the_slice_boundary(self):
        p, q, w = self._odd_rows()
        q[[CHECK_ROWS - 1, CHECK_ROWS]] = q[[CHECK_ROWS, CHECK_ROWS - 1]]
        with pytest.raises(ValueError, match="must be sorted by"):
            tm.WeightedShapeSet.from_columns(p, q, q, w)

    def test_from_columns_raises_the_earliest_bad_slice_on_the_pool(self, monkeypatch):
        monkeypatch.setenv(tm.ENV_THREADS, "2")
        monkeypatch.setattr("trimoduli.moduli.CHECK_ROWS", 7)
        p, q, w = (col[:40] for col in self._odd_rows())
        q[24] += 1  # not gcd-reduced, in slice 3 (rows 21 .. 27)
        q[[8, 9]] = q[[9, 8]]  # unsorted, in slice 1 (rows 7 .. 13)
        with pytest.raises(ValueError, match="must be sorted by"):
            tm.WeightedShapeSet.from_columns(p, q, q, w)
        q[[8, 9]] = q[[9, 8]]
        with pytest.raises(ValueError, match="not gcd-reduced"):
            tm.WeightedShapeSet.from_columns(p, q, q, w)
        q[24] -= 1
        q[-1] = KEY_BOUND + 1  # too wide, in the last slice (rows 35 .. 39)
        with pytest.raises(tm.GuardError, match="below"):
            tm.WeightedShapeSet.from_columns(p, q, q, w)

    def test_from_columns_is_the_same_at_any_thread_count(self, monkeypatch, s31):
        built = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv(tm.ENV_THREADS, threads)
            built.append(tm.WeightedShapeSet.from_columns(*s31.columns()))
        assert built[0] == built[1] == built[2] == s31

    @pytest.mark.parametrize(
        "cols",
        [
            ([1.9], [1.2], [2.7], [4.5]),  # used to be read as {(1, 1, 2): 4}
            ([1], [1], [2], [True]),
            (["1"], ["1"], ["2"], ["4"]),
        ],
        ids=["float", "bool-weight", "str"],
    )
    def test_from_columns_rejects_columns_that_are_not_integers(self, cols):
        with pytest.raises(tm.GuardError):
            tm.WeightedShapeSet.from_columns(*(np.array(c) for c in cols))

    def test_items_sorted(self):
        s = tm.WeightedShapeSet(
            {
                tm.SimilarityKey(2, 9, 17): 1,
                tm.SimilarityKey(1, 1, 2): 4,
                tm.SimilarityKey(1, 2, 5): 2,
            }
        )
        triples = [k.triple for k, _ in s.items()]
        assert triples == sorted(triples)

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            tm.WeightedShapeSet({tm.SimilarityKey(1, 1, 2): 0})

    @pytest.mark.parametrize("weight", [2.7, True, 2**64])
    def test_rejects_weights_that_are_not_int64_integers(self, weight):
        # none may be truncated (2.7 -> 2, True -> 1) or overflow numpy
        with pytest.raises(tm.GuardError):
            tm.WeightedShapeSet({(1, 1, 2): weight})

    def test_rejects_duplicate_keys_in_mapping(self):
        # a SimilarityKey and an equal plain tuple are distinct dict keys
        with pytest.raises(ValueError):
            tm.WeightedShapeSet({tm.SimilarityKey(1, 1, 2): 1, (1, 1, 2): 2})

    def test_lookup_when_widest_entry_is_not_in_last_row(self):
        # rows sort by p, so the last row (2, 2, 3) is not the widest
        s = tm.WeightedShapeSet({(2, 2, 3): 1, (1, 50, 55): 3})
        assert list(s.items()) == [
            (tm.SimilarityKey(1, 50, 55), 3),
            (tm.SimilarityKey(2, 2, 3), 1),
        ]
        census = tm.enumerate_weighted(3)
        weights = dict(census.items())
        assert len(weights) == len(census)
        assert sum(weights.values()) == census.total_weight

    def test_rejects_realizable_keys_beyond_int64(self):
        # every coordinate passes the MAX_COORD guard, yet the squared sides
        # are about 1.8e19, 1.8e19 and 3.7e19
        m = tm.MAX_COORD
        key = tm.similarity_key(tm.triangle(-m, -m, m, m, -m, m - 1))
        assert key.p > 2**63 - 1
        with pytest.raises(tm.GuardError):
            tm.WeightedShapeSet({key: 1})

    # past KEY_BOUND, d * d, 4 * p * q and p + q can wrap in int64: without
    # the bound the first (no triangle) passes the triangle test and the
    # second (acute) counts as obtuse
    @pytest.mark.parametrize(
        "key",
        [(2**60, (2**30 + 1) ** 2, 4611686022722355202), (2**62 + 1, 2**62 + 1, 2**62 + 3)],
        ids=["degenerate", "acute"],
    )
    def test_rejects_key_entries_from_the_bound_on(self, key):
        p, q, r = ([v] for v in key)
        with pytest.raises(tm.GuardError):
            tm.WeightedShapeSet.from_columns(p, q, r, [1])
        with pytest.raises(ValueError):  # SimilarityKey rejects the first itself
            tm.WeightedShapeSet({key: 1})
        a, b, c = (float(side[0]) for side in normalized_sides(p, q, r))
        angle = "obtuse" if key[2] > key[0] + key[1] else "acute"
        text = (
            "# schema: trimoduli.weighted-set.v1\np,q,r,weight,angle_class,a,b,c\n"
            f"{key[0]},{key[1]},{key[2]},1,{angle},{a!r},{b!r},{c!r}\n"
        )
        with pytest.raises(tm.GuardError):
            tm.read_weighted_set(text, "csv")

    def test_accepts_key_entries_below_the_bound(self):
        key = (KEY_BOUND - 3, KEY_BOUND - 2, KEY_BOUND - 1)
        s = tm.WeightedShapeSet({key: 1})
        assert tm.WeightedShapeSet.from_columns(*s.columns()) == s
        assert tm.curve_point_from_set(1, s).obtuse_weight == 0
        assert "acute" in tm.export_weighted_set(s)
        with pytest.raises(tm.GuardError):
            tm.WeightedShapeSet({(KEY_BOUND - 2, KEY_BOUND - 1, KEY_BOUND): 1})

    def test_lookup_of_keys_too_wide_to_pack(self):
        wide = (1, 2**22, 2**22 + 1)
        s = tm.WeightedShapeSet({wide: 5, (1, 1, 2): 1})
        assert dict(s.items()) == {tm.SimilarityKey(*wide): 5, tm.SimilarityKey(1, 1, 2): 1}
