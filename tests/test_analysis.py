"""Obtuse-fraction curves and the binned equidistribution comparison."""

import math
from itertools import combinations

import numpy as np
import pytest

import trimoduli as tm
from trimoduli import enumeration


class TestObtusePoint:
    def test_n2_against_naive_recount(self, s2):
        pt = tm.obtuse_point(2)
        ow = sum(w for k, w in s2.items() if k.r > k.p + k.q)
        oc = sum(1 for k, _ in s2.items() if k.r > k.p + k.q)
        assert pt.total_weight == s2.total_weight == 2148
        assert pt.distinct_count == len(s2) == 55
        assert pt.obtuse_weight == ow == 1148
        assert pt.obtuse_distinct == oc == 31
        assert pt.weighted_fraction == ow / s2.total_weight
        assert pt.distinct_fraction == oc / len(s2)

    def test_curve_runs_2_to_n(self):
        curve = tm.obtuse_curve(4)
        assert [p.n for p in curve] == [2, 3, 4]
        assert curve[0] == tm.obtuse_point(2)

    def test_point_validation_rejects_mismatched_fraction(self):
        # the fractions are derived from the counts, so none can be passed in
        for pt in tm.obtuse_curve(5):
            assert pt.weighted_fraction == pt.obtuse_weight / pt.total_weight
            assert pt.distinct_fraction == pt.obtuse_distinct / pt.distinct_count
        with pytest.raises(TypeError):
            tm.ObtuseCurvePoint(
                n=2,
                weighted_fraction=0.9,
                total_weight=2148,
                distinct_count=55,
                obtuse_weight=1148,
                obtuse_distinct=31,
            )

    def test_n_guard(self):
        with pytest.raises(tm.GuardError):
            tm.obtuse_point(1)
        with pytest.raises(tm.GuardError):
            tm.obtuse_point(tm.MAX_N + 1)
        with pytest.raises(tm.GuardError):
            tm.obtuse_point(2.0)

    @pytest.mark.parametrize("n", ["x", 2.5, True, 0])
    def test_records_reject_an_n_that_is_not_a_grid_size(self, n):
        s = tm.WeightedShapeSet({tm.SimilarityKey(1, 1, 2): 4})
        with pytest.raises(tm.GuardError):
            tm.curve_point_from_set(n, s)
        with pytest.raises(tm.GuardError):
            tm.ObtuseCurvePoint(n, 4, 1, 0, 0)
        with pytest.raises(tm.GuardError):
            tm.EquidistReport(n, 0.5)

    @pytest.mark.parametrize(
        "counts",
        [(4, 1, 5, 0), (4, 1, 2, 3), (4, 1, -1, 0), (4, 1, 0, -1)],
        ids=["weight-above-total", "distinct-above-count", "negative-weight", "negative-distinct"],
    )
    def test_point_rejects_obtuse_counts_outside_the_census(self, counts):
        # the fractions these would give (1.25, 3.0, ...) are not fractions
        with pytest.raises(tm.GuardError):
            tm.ObtuseCurvePoint(2, *counts)
        pt = tm.ObtuseCurvePoint(2, 4, 1, 4, 1)
        assert (pt.weighted_fraction, pt.distinct_fraction) == (1.0, 1.0)


class TestOneScanCurve:
    """obtuse_curve takes every point from one scan of the box heights;
    each must equal the point of its own census."""

    @pytest.fixture(scope="class")
    def curve20(self):
        return tm.obtuse_curve(20)

    def test_every_point_equals_its_census(self, curve20):
        assert [pt.n for pt in curve20] == list(range(2, 21))
        for pt in curve20:
            assert pt == tm.curve_point_from_set(pt.n, tm.enumerate_weighted(pt.n))

    def test_last_point_at_31_equals_the_census(self, curve31, s31):
        assert curve31[-1] == tm.curve_point_from_set(31, s31)

    @pytest.mark.parametrize("k", [2, 5, 13])
    def test_points_do_not_depend_on_the_pack_shift(self, curve20, k):
        # a point does not depend on n_max: the curve of k folds fewer
        # heights, in fewer key ranges, than the curve of 20
        assert tm.obtuse_curve(k) == curve20[: k - 1]

    @pytest.fixture(scope="class")
    def counts3(self):
        return enumeration.obtuse_counts(3)

    # the heights run on the pool, and their 304 keys are folded by key
    # range on it; neither the thread count nor the ranges may change a
    # count: one key per range, 7, and one range (567 exceeds the keys)
    @pytest.mark.parametrize("range_keys", [1, 7, 567])
    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    def test_thread_and_batch_split_invariance(self, counts3, monkeypatch, range_keys, threads):
        monkeypatch.setenv(tm.ENV_THREADS, threads)
        monkeypatch.setattr(enumeration, "RANGE_KEYS", range_keys)
        assert enumeration.obtuse_counts(3) == counts3

    def test_total_mismatch_fails_loudly(self, monkeypatch):
        closed_form = enumeration._triangle_total
        monkeypatch.setattr(enumeration, "_triangle_total", lambda n: closed_form(n) - (n == 2))
        with pytest.raises(RuntimeError, match="2148 at n=2.*2147"):
            tm.obtuse_curve(3)

    def test_weighted_fraction_rises_to_below_langford(self, curve31):
        # exact census data at scale: the weighted obtuse fraction climbs
        # towards 97/150 + pi/40 from below
        fractions = [pt.weighted_fraction for pt in curve31]
        assert all(a < b for a, b in zip(fractions, fractions[1:]))
        assert fractions[-1] < tm.langford_obtuse_probability()


class TestScaleLaws:
    """Measured rates, not limits: the census's obtuse and right weight
    shares differ from the random-triangle law by O(ln n / n^2)."""

    def test_obtuse_gap_to_langford_scales_as_log_n_over_n_squared(self):
        # law 1: gap * n^2 / ln n falls at every n from 4 to MAX_N = 64
        limit = 97 / 150 + math.pi / 40
        curve = tm.obtuse_curve(tm.MAX_N)
        rate = {pt.n: (limit - pt.weighted_fraction) * pt.n**2 / math.log(pt.n) for pt in curve}
        assert all(rate[n + 1] < rate[n] for n in range(4, tm.MAX_N))
        assert all(0.8235 <= rate[n] <= 0.8468 for n in range(8, tm.MAX_N + 1))
        pinned = {4: 0.88465, 8: 0.84674, 16: 0.83610, 31: 0.83020, 48: 0.82621, 64: 0.82358}
        assert {n: round(rate[n], 5) for n in pinned} == pinned

    def test_right_weight_share_scales_as_log_n_over_n_squared(self, s31):
        # law 2: right classes (r = p + q) have measure zero in shape space,
        # yet hold 1.29175, 1.29665 and 1.30180 times ln n / n^2 of the
        # weight at n = 8, 16 and 31
        for n, s in [(8, tm.enumerate_weighted(8)), (16, tm.enumerate_weighted(16)), (31, s31)]:
            p, q, r, w = s.columns()
            share = int(w[r == p + q].sum()) / s.total_weight
            assert 1.2 <= share * n**2 / math.log(n) <= 1.4


class TestCurvePointFromSet:
    def test_naive_cross_check(self):
        s = tm.enumerate_naive((0, 2, 0, 2))
        obtuse = sum(w for k, w in s.items() if k.r > k.p + k.q)
        assert tm.curve_point_from_set(1, s).weighted_fraction == obtuse / s.total_weight

    def test_scale_invariance(self):
        s1 = tm.WeightedShapeSet(
            {tm.SimilarityKey(1, 1, 2): 4, tm.SimilarityKey(2, 9, 17): 1}
        )
        s2 = tm.WeightedShapeSet(
            {tm.SimilarityKey(1, 1, 2): 40, tm.SimilarityKey(2, 9, 17): 10}
        )
        p1, p2 = tm.curve_point_from_set(2, s1), tm.curve_point_from_set(2, s2)
        assert p1.weighted_fraction == p2.weighted_fraction == 0.2
        assert p1.distinct_fraction == p2.distinct_fraction == 0.5

    def test_empty_census_rejected(self):
        with pytest.raises(tm.GuardError):
            tm.curve_point_from_set(2, tm.WeightedShapeSet({}))

    def test_obtuse_weight_is_exact_beyond_int64(self):
        # an int64 sum of the two obtuse weights wraps to -2^63, which the
        # point refused as an empty census
        s = tm.WeightedShapeSet.from_columns([1, 1], [1, 2], [3, 5], [2**62, 2**62])
        pt = tm.curve_point_from_set(2, s)
        assert pt.obtuse_weight == pt.total_weight == 2**63
        assert pt.weighted_fraction == 1.0

    def test_no_obtuse_weight_is_zero_not_error(self):
        s = tm.WeightedShapeSet({tm.SimilarityKey(1, 1, 2): 4})
        assert tm.curve_point_from_set(2, s).weighted_fraction == 0.0


class TestDistinctCountsFromVertices:
    """The distinct obtuse fraction (c04's distinct subchecks) is
    obtuse_distinct / distinct_count.  Both counts are rebuilt here from
    vertex coordinates alone: obtuse means a negative dot product of the two
    edge vectors at some vertex, with no use of key ordering or region masks.
    """

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_counts_match_census(self, n):
        pts = [(x, y) for x in range(-n, n + 1) for y in range(-n, n + 1)]
        classes, obtuse = set(), set()
        for a, b, c in combinations(pts, 3):
            if (b[0] - a[0]) * (c[1] - a[1]) == (b[1] - a[1]) * (c[0] - a[0]):
                continue  # collinear
            key = tm.similarity_key(tm.triangle(*a, *b, *c))
            classes.add(key)
            for o, u, v in ((a, b, c), (b, c, a), (c, a, b)):
                if (u[0] - o[0]) * (v[0] - o[0]) + (u[1] - o[1]) * (v[1] - o[1]) < 0:
                    obtuse.add(key)
        pt = tm.curve_point_from_set(n, tm.enumerate_weighted(n))
        assert pt.distinct_count == len(classes)
        assert pt.obtuse_distinct == len(obtuse)


class TestEquidistReport:
    def test_n2_gaps(self):
        r = tm.equidist_report(2)
        assert r.empirical_ratio == tm.obtuse_point(2).weighted_fraction
        assert r.uniform_target == tm.uniform_target(tm.ModuliRegion.OBTUSE_ALL)
        assert r.langford == tm.langford_obtuse_probability()
        assert r.gap_to_uniform == abs(r.empirical_ratio - r.uniform_target)
        assert r.gap_to_langford == abs(r.empirical_ratio - r.langford)

    def test_report_from_precomputed_point(self, s2):
        pt = tm.curve_point_from_set(2, s2)
        assert tm.EquidistReport(pt.n, pt.weighted_fraction) == tm.equidist_report(2)

    def test_validation_rejects_wrong_gap(self):
        # the references and gaps are derived from the fraction, so none can
        # be passed in
        r = tm.EquidistReport(2, 0.5)
        assert r.uniform_target == tm.uniform_target(tm.ModuliRegion.OBTUSE_ALL)
        assert r.langford == tm.langford_obtuse_probability()
        assert r.gap_to_uniform == abs(0.5 - r.uniform_target)
        assert r.gap_to_langford == abs(0.5 - r.langford)
        with pytest.raises(TypeError):
            tm.EquidistReport(n=2, empirical_ratio=0.5, gap_to_uniform=0.5)

    @pytest.mark.parametrize("ratio", [math.nan, math.inf, -0.1, 1.7])
    def test_rejects_a_ratio_that_is_not_a_fraction(self, ratio):
        # nan would be exported as NaN, which is not JSON
        with pytest.raises(tm.GuardError):
            tm.EquidistReport(2, ratio)
        for edge in (0, 1):
            assert tm.EquidistReport(2, edge).empirical_ratio == float(edge)


class TestUniformMasses:
    def test_partition_of_unity(self):
        for bins in (2, 3, 8, 17):
            m = tm.uniform_bin_masses(bins)
            assert m.shape == (bins, bins)
            assert m.sum() == pytest.approx(1.0, abs=1e-12)
            full = 2.0 / bins**2
            half = 1.0 / bins**2
            assert (m == full).sum() == bins * (bins - 1) // 2
            assert (m == half).sum() == bins
            assert (m == 0.0).sum() == bins * bins - bins * (bins + 1) // 2

    def test_geometry_of_support(self):
        m = tm.uniform_bin_masses(8)
        # full cells lie strictly above the antidiagonal, the half cells on it
        for i in range(8):
            for j in range(8):
                if i + j >= 8:
                    assert m[i, j] == 2.0 / 64.0
                elif i + j == 7:
                    assert m[i, j] == 1.0 / 64.0
                else:
                    assert m[i, j] == 0.0

    def test_bins_guard(self):
        with pytest.raises(tm.GuardError):
            tm.uniform_bin_masses(1)
        with pytest.raises(tm.GuardError):
            tm.uniform_bin_masses(5000)


class TestOrbitProjections:
    def test_pattern_counts(self):
        s = tm.WeightedShapeSet(
            {
                tm.SimilarityKey(1, 1, 2): 2,  # isoceles: 3 distinct patterns
                tm.SimilarityKey(9, 16, 25): 1,  # scalene: 6
                tm.SimilarityKey(1, 1, 1): 5,  # equilateral: 1
            }
        )
        a, b, w = tm.orbit_projections(s)
        assert len(a) == len(b) == len(w) == 10
        assert sorted(w.tolist()) == [1, 1, 1, 1, 1, 1, 2, 2, 2, 5]

    def test_projections_are_plane_points(self):
        s = tm.WeightedShapeSet({tm.SimilarityKey(2, 9, 17): 3})
        a, b, _ = tm.orbit_projections(s)
        assert len(a) == 6
        assert np.all((a > 0) & (a < 1) & (b > 0) & (b < 1))
        assert np.all(a + b > 1)

    def test_isoceles_patterns(self):
        s = tm.WeightedShapeSet({tm.SimilarityKey(1, 1, 2): 1})
        a, b, _ = tm.orbit_projections(s)
        pairs = sorted(zip(a.tolist(), b.tolist()))
        short = pairs[0][0]
        long_ = pairs[-1][0]
        assert pairs == [(short, short), (short, long_), (long_, short)]


# every orbit kind, with distinct weights: scalene, (a, a, c), (a, c, c) and
# the equilateral class no lattice triangle has
ALL_ORBIT_KINDS = tm.WeightedShapeSet({(9, 16, 25): 2, (1, 1, 2): 3, (1, 2, 2): 5, (1, 1, 1): 7})


class TestOrbitBinMasses:
    @pytest.mark.parametrize("bins", [2, 7, 32, 64, 4096])
    @pytest.mark.parametrize("census", [4, 8, 16, "kinds"])
    def test_equals_the_add_at_grid(self, census, bins):
        # the integer grid of the distinct orbit projections, built point by
        # point with np.add.at, is the oracle for the orbit-size weighted
        # bincount of moduli.shape_grid
        s = ALL_ORBIT_KINDS if census == "kinds" else tm.enumerate_weighted(census)
        x, y, w = tm.orbit_projections(s)
        ix = np.clip((x * bins).astype(np.int64), 0, bins - 1)
        iy = np.clip((y * bins).astype(np.int64), 0, bins - 1)
        grid = np.zeros((bins, bins), dtype=np.int64)
        np.add.at(grid, (ix, iy), w)
        assert np.array_equal(tm.orbit_bin_masses(s, bins), grid / grid.sum())

    def test_empty_census_rejected(self):
        # not a grid of NaN masses from 0 / 0
        with pytest.raises(tm.GuardError, match="empty census"):
            tm.orbit_bin_masses(tm.WeightedShapeSet({}), 8)
        with pytest.raises(tm.GuardError, match="empty census"):
            tm.compare_to_uniform(tm.WeightedShapeSet({}), 8)

    def test_weighted_bincount_is_exact_up_to_max_n(self):
        # bincount sums weights in float64, exact while every cell and the
        # total stay below 2^53; every class counts its 6 labeled pairs at
        # weight times orbit size <= 6, so the grid of the largest census
        # holds at most 36 * 767,568,546,000
        assert enumeration._triangle_total(tm.MAX_N) == 767_568_546_000
        assert 36 * enumeration._triangle_total(tm.MAX_N) < 2**53
        # obtuse_counts bincounts orbit and orbit * width per height in
        # float64, largest at h = 2 * MAX_N, and its int64 running sums
        # are bounded by N^2 A <= heights * sum orbit(2 * MAX_N) * N^2
        heights = 2 * tm.MAX_N
        width, orbit, _, _ = enumeration._box_keys(heights)
        assert int((orbit * width).sum()) == 1_073_627_136 < 2**53
        assert heights * int(orbit.sum()) * (heights + 1) ** 2 < 2**63


class TestCompareToUniform:
    def test_single_isoceles_key_exact(self):
        # three projections, each of mass 1/3, land in full cells of the
        # uniform reference: TV = 1 - 3 * (2/64), exactly representable
        s = tm.WeightedShapeSet({tm.SimilarityKey(1, 1, 2): 7})
        assert tm.compare_to_uniform(s, 8) == 29.0 / 32.0

    def test_weight_scale_invariance(self):
        s1 = tm.WeightedShapeSet(
            {tm.SimilarityKey(1, 1, 2): 4, tm.SimilarityKey(2, 9, 17): 1}
        )
        s2 = tm.WeightedShapeSet(
            {tm.SimilarityKey(1, 1, 2): 400, tm.SimilarityKey(2, 9, 17): 100}
        )
        assert tm.compare_to_uniform(s1, 16) == tm.compare_to_uniform(s2, 16)

    def test_tv_distance_basics(self):
        m = tm.uniform_bin_masses(8)
        assert tm.tv_distance(m, m) == 0.0
        other = np.zeros_like(m)
        other[0, 0] = 1.0  # disjoint support
        assert tm.tv_distance(m, other) == 1.0

    def test_census_tends_to_the_random_triangle_law_not_to_uniform(self, s31):
        # The paper's non-equidistribution claim: the census stays about
        # 0.117 in TV from the uniform measure while its distance to the
        # shape law of three uniform points in a square keeps falling.
        # The sampled law's own noise, TV(seed 7, seed 8), is 0.0026.
        hist = tm.shape_histogram(4_000_000, 32, 7)
        law = hist.counts / hist.total
        uniform = tm.uniform_bin_masses(32)
        to_uniform, to_law = [], []
        for s in [tm.enumerate_weighted(n) for n in (4, 8, 16)] + [s31]:
            masses = tm.orbit_bin_masses(s, 32)
            to_uniform.append(tm.tv_distance(masses, uniform))
            to_law.append(tm.tv_distance(masses, law))
        assert all(tv > 0.1 for tv in to_uniform)
        assert all(later < earlier for earlier, later in zip(to_law, to_law[1:]))
        assert to_law[-1] < 0.01

    def test_census_tv_stable_across_binnings(self, s31):
        # the census is genuinely far from uniform; the gap is a property
        # of the measure, not of the mesh
        t32 = tm.compare_to_uniform(s31, 32)
        t64 = tm.compare_to_uniform(s31, 64)
        assert abs(t32 - t64) < 0.02
        assert t32 > 0.1
