"""Census correctness: the weighted pipeline against brute force."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trimoduli as tm
from trimoduli import enumeration
from trimoduli.enumeration import _ordered_pair_totals


def collinear_triples_on_grid(side: int) -> int:
    """Collinear point triples in a side x side grid, in O(side^2).

    Each collinear triple is counted once by its two outer points: a pair
    with difference (dx, dy) has gcd(dx, dy) - 1 lattice points strictly
    between, and (side - |dx|)(side - |dy|) placements.  Difference vectors
    range over a half-plane so each unordered pair counts once."""
    total = 0
    for dx in range(side):
        for dy in range(-(side - 1), side):
            if dx == 0 and dy <= 0:
                continue
            total += (math.gcd(dx, dy) - 1) * (side - dx) * (side - abs(dy))
    return total


class TestMultiplicity:
    def test_unit_box_in_unit_window(self):
        assert tm.translation_multiplicity(tm.BoundingBox(1, 1), 1) == 4

    def test_full_window_box(self):
        assert tm.translation_multiplicity(tm.BoundingBox(4, 4), 2) == 1

    def test_too_wide_is_zero(self):
        assert tm.translation_multiplicity(tm.BoundingBox(5, 1), 2) == 0

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            tm.BoundingBox(0, 0)
        tm.BoundingBox(0, 3)  # vertical segment spans are fine

    def test_translation_class_geometry(self):
        t = tm.TranslationClass((3, 0), (-1, 1))
        assert t.bounding_box() == tm.BoundingBox(4, 1)
        assert t.squared_sides() == (2, 9, 17)
        assert t.key().triple == (2, 9, 17)
        with pytest.raises(ValueError):
            tm.TranslationClass((2, 1), (4, 2))


class TestNaive:
    def test_unit_square_census(self):
        s = tm.enumerate_naive((0, 1, 0, 1))
        assert s.as_dict() == {tm.SimilarityKey(1, 1, 2): 4}

    def test_n1_total_is_76(self):
        s = tm.enumerate_naive((-1, 1, -1, 1))
        assert s.total_weight == 76

    def test_point_guard(self):
        with pytest.raises(tm.GuardError):
            tm.enumerate_naive((0, 30, 0, 30))

    def test_empty_box_rejected(self):
        with pytest.raises(tm.GuardError):
            tm.enumerate_naive((1, 0, 0, 1))


class TestCollinearCount:
    def test_3x3_grid(self):
        # 9 points: 8 full lines of 3 (3 rows, 3 cols, 2 diagonals)
        assert tm.collinear_triple_count((-1, 1, -1, 1)) == 8

    def test_complements_census(self):
        n = 2
        pts = (2 * n + 1) ** 2
        assert tm.total_triangle_count(n) == math.comb(pts, 3) - tm.collinear_triple_count(
            (-n, n, -n, n)
        )

    @pytest.mark.parametrize("box", [(1, 0, 0, 1), (0, 1, 0), (0, 30, 0, 30), (0.9, 1.9, 0, 1)])
    def test_box_guard_shared_with_naive_census(self, box):
        # empty, malformed, oversized and non-integer boxes are rejected by
        # both oracles; int() would truncate the last to (0, 1, 0, 1)
        with pytest.raises(tm.GuardError):
            tm.collinear_triple_count(box)
        with pytest.raises(tm.GuardError):
            tm.enumerate_naive(box)


class TestWeightedCensus:
    def test_matches_naive_n1(self):
        assert tm.enumerate_weighted(1) == tm.enumerate_naive((-1, 1, -1, 1))

    def test_matches_naive_n2(self, s2):
        assert s2 == tm.enumerate_naive((-2, 2, -2, 2))

    def test_n2_totals(self, s2):
        assert s2.total_weight == 2148
        assert tm.total_triangle_count(3) == 17600

    # n = 2 scans 81 u-rows: one row per batch, and 7 rows per batch with a
    # ragged last batch of 4
    @pytest.mark.parametrize("row_target", [1, 7 * 81])
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_batch_split_invariance(self, s2, monkeypatch, row_target, threads):
        monkeypatch.setattr(enumeration, "_ROW_TARGET", row_target)
        monkeypatch.setenv(tm.ENV_THREADS, threads)
        assert tm.enumerate_weighted(2) == s2

    def test_ordered_pair_totals_divisible_by_six(self):
        for n in (1, 2, 3):
            _, _, _, w = _ordered_pair_totals(n)
            assert int(w.sum()) % 6 == 0

    def test_keys_monotone_in_n(self, s2):
        s3 = tm.enumerate_weighted(3)
        k2 = set(s2.keys())
        k3 = set(s3.keys())
        assert k2 <= k3
        for k in k2:
            assert s3.weight_of(k) >= s2.weight_of(k)

    def test_distinct_classes(self, s2):
        assert tm.distinct_classes(2) == set(s2.keys())

    def test_no_unit_equilateral_small_n(self):
        # no lattice triangle is equilateral, so (1,1,1) never appears
        for n in (1, 2, 3, 4):
            assert tm.SimilarityKey(1, 1, 1) not in tm.enumerate_weighted(n)

    def test_guards(self):
        with pytest.raises(tm.GuardError):
            tm.enumerate_weighted(0)
        with pytest.raises(tm.GuardError):
            tm.enumerate_weighted(tm.MAX_N + 1)
        with pytest.raises(tm.GuardError):
            tm.enumerate_weighted(512)
        with pytest.raises(tm.GuardError):
            tm.enumerate_weighted("2")


class TestParallelPath:
    def test_worker_pool_census_identical(self, s2, monkeypatch):
        monkeypatch.setenv(tm.ENV_THREADS, "2")
        assert tm.enumerate_weighted(2) == s2

    def test_worker_count_env(self, monkeypatch):
        monkeypatch.setenv(tm.ENV_THREADS, "3")
        assert tm.worker_count() == 3
        monkeypatch.setenv(tm.ENV_THREADS, "0")
        with pytest.raises(tm.GuardError):
            tm.worker_count()
        monkeypatch.setenv(tm.ENV_THREADS, "lots")
        with pytest.raises(tm.GuardError):
            tm.worker_count()

    def test_map_ordered_preserves_order(self):
        from trimoduli.parallel import map_ordered

        args = [(i,) for i in range(7)]
        assert map_ordered(_square, args, workers=1) == [i * i for i in range(7)]
        assert map_ordered(_square, args, workers=2) == [i * i for i in range(7)]


def _square(i):
    return i * i


@given(st.integers(min_value=1, max_value=3))
@settings(max_examples=3, deadline=None)
def test_census_total_identity(n):
    # the weighted census and the inclusion-exclusion point count must agree
    s = tm.enumerate_weighted(n)
    pts = (2 * n + 1) ** 2
    expected = math.comb(pts, 3) - tm.collinear_triple_count((-n, n, -n, n))
    assert s.total_weight == expected


class TestCensusInvariantsAtScale:
    def test_grid_collinear_formula_matches_brute_force(self):
        for n in (1, 2, 3):
            assert collinear_triples_on_grid(2 * n + 1) == tm.collinear_triple_count(
                (-n, n, -n, n)
            )

    def test_n31_total_is_all_triples_minus_collinear(self, s31):
        side = 63
        expected = math.comb(side * side, 3) - collinear_triples_on_grid(side)
        assert expected == 10_396_883_248
        assert s31.total_weight == expected

    def test_max_n_is_the_single_word_packing_bound(self):
        def bits(n):
            return 3 * (8 * n * n).bit_length()

        assert bits(tm.MAX_N) <= 63 < bits(tm.MAX_N + 1)
