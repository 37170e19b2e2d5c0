"""Census correctness: the weighted pipeline against brute force."""

import math
import os
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trimoduli as tm
from trimoduli import enumeration
from trimoduli.enumeration import H_BITS, KEY_BITS, pack_key, unpack_key


def box_triangle_count(w: int, h: int) -> int:
    """T(w, h): triangles whose exact bounding box is w x h, by which
    corners are vertices (one, two adjacent, two diagonal, three)."""
    return (
        4 * (w - 1) * (h - 1)
        + 2 * (w - 1)
        + 2 * (h - 1)
        + 2 * ((w + 1) * (h + 1) - 3 - math.gcd(w, h))
        + 4
    )


def brute_box_triangle_count(w: int, h: int) -> int:
    """Non-degenerate point triples of [0, w] x [0, h] that touch all four
    sides of the box."""
    pts = [(x, y) for x in range(w + 1) for y in range(h + 1)]
    total = 0
    for a, b, c in combinations(pts, 3):
        if (b[0] - a[0]) * (c[1] - a[1]) == (b[1] - a[1]) * (c[0] - a[0]):
            continue
        xs = (a[0], b[0], c[0])
        ys = (a[1], b[1], c[1])
        total += min(xs) == 0 and max(xs) == w and min(ys) == 0 and max(ys) == h
    return total


def census_from_tables(n, tables):
    keys, weights = enumeration._merge(tables)
    return tm.WeightedShapeSet.from_columns(*unpack_key(keys), weights)


def box_keys_int64(h: int, both_sides: bool = False):
    """_box_keys(h) from an int64 broadcast over the box's (w, x, y) grid:
    widths, orbits, sorted unreduced sides and packed reduced keys.  The
    diagonal rows take one side of the diagonal, x h > y w, at twice the
    orbit, as _box_rows does, or with both_sides every box point off it."""
    w = np.arange(1, h + 1, dtype=np.int64)[:, None, None]
    x = np.arange(h + 1, dtype=np.int64)[None, :, None]
    y = np.arange(h + 1, dtype=np.int64)[None, None, :]
    # one corner: (0,0), (w,y), (x,h); diagonal: (0,0), (w,h), (x,y)
    fw, fx, fy = np.nonzero((x < w) & (y < h))
    corner = ((x == 0) | (x == w)) & ((y == 0) | (y == h))
    side = x * h != y * w if both_sides else x * h > y * w
    dw, dx, dy = np.nonzero((x <= w) & ~corner & side)
    width = np.concatenate((fw, dw)) + 1
    diagonal = 2 if both_sides else 4
    flips = np.concatenate((np.where((fx == 0) == (fy == 0), 4, 2), np.full(len(dw), diagonal)))
    orbit = flips * np.where(width < h, 2, 1)
    ay = np.concatenate((fy, np.full(len(dw), h)))
    bx = np.concatenate((fx, dx))
    by = np.concatenate((np.full(len(fw), h), dy))
    sides = np.sort([width**2 + ay**2, bx**2 + by**2, (bx - width) ** 2 + (by - ay) ** 2], axis=0)
    lo, mid, hi = sides // np.gcd.reduce(sides, axis=0)
    # KEY_BITS bits per entry above H_BITS zero bits
    return width, orbit, sides, ((lo << KEY_BITS | mid) << KEY_BITS | hi) << H_BITS


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


class TestNaive:
    def test_unit_square_census(self):
        s = tm.enumerate_naive((0, 1, 0, 1))
        assert dict(s.items()) == {tm.SimilarityKey(1, 1, 2): 4}

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
        assert enumeration._triangle_total(n) == math.comb(pts, 3) - tm.collinear_triple_count(
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
        assert enumeration._triangle_total(3) == 17600

    # the census merges one key table per box height h; neither the merge
    # order nor merging the tables in batches of h_batch heights may change
    # it: one h at a time, and one batch (567 exceeds every height count here)
    @pytest.mark.parametrize("h_batch", [1, 567])
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_batch_split_invariance(self, s2, monkeypatch, h_batch, threads):
        monkeypatch.setenv(tm.ENV_THREADS, threads)
        for n, census in ((2, s2), (3, tm.enumerate_weighted(3))):
            tables = [enumeration._box_table(n, h) for h in range(1, 2 * n + 1)]
            assert census_from_tables(n, tables[::-1]) == census
            batches = [
                enumeration._merge(tables[i:i + h_batch])
                for i in range(0, len(tables), h_batch)
            ]
            folded = batches[0]
            for batch in batches[1:]:
                folded = enumeration._merge([folded, batch])
            assert census_from_tables(n, [folded]) == census

    # the census merges its height tables by key range on the pool; neither
    # the ranges nor the thread count may change it: one key per range (more
    # ranges than keys at n = 1, so some are empty), 7, and one range (567
    # exceeds the 304 rows of the n = 3 tables)
    @pytest.mark.parametrize("range_keys", [1, 7, 567])
    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    def test_range_split_invariance(self, monkeypatch, range_keys, threads):
        monkeypatch.setenv(tm.ENV_THREADS, threads)
        monkeypatch.setattr(enumeration, "RANGE_KEYS", range_keys)
        for n in (1, 2, 3):
            tables = [enumeration._box_table(n, h) for h in range(1, 2 * n + 1)]
            assert tm.enumerate_weighted(n) == census_from_tables(n, tables)

    def test_one_diagonal_side_loses_nothing(self):
        # the box's half turn pairs the diagonal rows on the two sides of the
        # diagonal, so one side at twice the orbit gives every height's table
        n = 31
        side = 2 * n + 1
        for h in range(1, 2 * n + 1):
            width, orbit, _, keys = box_keys_int64(h, both_sides=True)
            weights = orbit * (side - width) * (side - h)
            ref_keys, ref_weights = enumeration._merge([(keys, weights)])
            keys, weights = enumeration._box_table(n, h)
            assert np.array_equal(keys, ref_keys)
            assert np.array_equal(weights, ref_weights)

    def test_box_rows_sum_to_closed_form(self):
        for h in range(1, 21):
            width, ay, bx, by, orbit = enumeration._box_rows(h)
            # every row is a non-degenerate triangle (0,0), (w, ay), (bx, by)
            # whose exact bounding box is w x h
            assert np.all((0 <= bx) & (bx <= width) & (0 <= ay) & (0 <= by))
            assert np.all(np.maximum(ay, by) == h)
            assert np.all(width * by != ay * bx)
            for w in range(1, h + 1):
                transpose = 2 if w < h else 1
                assert int(orbit[width == w].sum()) == transpose * box_triangle_count(w, h)

    def test_int32_kernel_equals_int64_at_the_largest_height(self):
        # _box_keys computes in int32; at h = 2 MAX_N, where the squared
        # sides reach 2 (2 MAX_N)^2, it must equal the int64 formula
        h = 2 * tm.MAX_N
        assert 2 * h**2 < 2**31
        # a packed key holds every key entry, every height in its low bits,
        # and fits int64
        assert 8 * tm.MAX_N**2 < 2**KEY_BITS
        assert h < 2**H_BITS
        assert 3 * KEY_BITS + H_BITS <= 63
        width, orbit, sides, keys = enumeration._box_keys(h)
        ref_width, ref_orbit, ref_sides, ref_keys = box_keys_int64(h)
        assert int(ref_sides.max()) == 2 * h**2
        assert np.array_equal(width, ref_width)
        assert np.array_equal(orbit, ref_orbit)
        assert np.array_equal(np.stack(sides), ref_sides)
        assert np.array_equal(keys, ref_keys)

    def test_pack_key_round_trip_and_order(self):
        # 8 MAX_N^2 = 32,768 is the largest key entry of any census
        big = 8 * tm.MAX_N**2
        triples = sorted([(1, 1, 2), (1, 2, 5), (2, 9, 17), (1, 31, 31), (3, 3, 4), (1, big, big)])
        p, q, r = (np.array(col, dtype=np.int64) for col in zip(*triples))
        packed = pack_key(p, q, r)
        assert np.all(np.diff(packed) > 0)  # lexicographic order survives
        assert [pack_key(*t) for t in triples] == packed.tolist()
        for h in (0, 1, 2**H_BITS - 1):
            # a height in the low bits changes neither the fields nor the order
            keyed = packed | h
            assert np.all(np.diff(keyed) > 0)
            for col, back in zip((p, q, r), unpack_key(keyed)):
                assert np.array_equal(col, back)
        assert unpack_key(pack_key(2, 9, 17) | 5) == (2, 9, 17)

    def test_box_closed_form_matches_brute_force(self):
        for w in range(1, 7):
            for h in range(1, 7):
                assert box_triangle_count(w, h) == brute_box_triangle_count(w, h)

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_ordered_pair_oracle(self, n):
        # every triangle is six ordered edge-vector pairs (3 anchors x 2
        # orders), each carrying the translate count of its bounding box
        side = 2 * n + 1
        span = range(-2 * n, 2 * n + 1)
        vectors = [(x, y) for x in span for y in span]
        totals: dict[tuple[int, int, int], int] = {}
        for (ux, uy), (vx, vy) in product(vectors, repeat=2):
            w = max(0, ux, vx) - min(0, ux, vx)
            h = max(0, uy, vy) - min(0, uy, vy)
            if ux * vy == uy * vx or w >= side or h >= side:
                continue
            sides = (ux * ux + uy * uy, vx * vx + vy * vy, (vx - ux) ** 2 + (vy - uy) ** 2)
            key = tm.reduced_triple(*sides)
            totals[key] = totals.get(key, 0) + (side - w) * (side - h)
        assert all(w % 6 == 0 for w in totals.values())
        oracle = tm.WeightedShapeSet({k: w // 6 for k, w in totals.items()})
        assert tm.enumerate_weighted(n) == oracle

    def test_total_mismatch_fails_loudly(self, monkeypatch):
        monkeypatch.setattr(enumeration, "_triangle_total", lambda n: 2147)
        with pytest.raises(RuntimeError, match="2148.*2147"):
            tm.enumerate_weighted(2)

    def test_keys_monotone_in_n(self, s2):
        s3 = tm.enumerate_weighted(3)
        w2, w3 = dict(s2.items()), dict(s3.items())
        assert w2.keys() <= w3.keys()
        for k, w in w2.items():
            assert w3[k] >= w

    def test_no_unit_equilateral_small_n(self):
        # no lattice triangle is equilateral, so (1,1,1) never appears
        for n in (1, 2, 3, 4):
            assert tm.SimilarityKey(1, 1, 1) not in dict(tm.enumerate_weighted(n).items())

    def test_guards(self):
        with pytest.raises(tm.GuardError):
            tm.enumerate_weighted(0)
        with pytest.raises(tm.GuardError):
            tm.enumerate_weighted(tm.MAX_N + 1)
        with pytest.raises(tm.GuardError):
            tm.enumerate_weighted(512)
        with pytest.raises(tm.GuardError):
            tm.enumerate_weighted("2")


def _pool_outputs():
    """The n = 12 census, its CSV and JSON bytes, and the CSV bytes of a
    labeled histogram with 8,256 nonzero cells."""
    census = tm.enumerate_weighted(12)
    hist = tm.shape_histogram(200_000, 128, 5, labeled=True)
    return (
        census,
        tm.export_weighted_set(census, "csv"),
        tm.export_weighted_set(census, "json"),
        tm.export_histogram(hist, "csv"),
    )


@pytest.fixture(scope="module")
def one_thread_outputs():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(tm.ENV_THREADS, "1")
        return _pool_outputs()


class TestParallelPath:
    # 4096-row chunks: 11 census chunks and 3 histogram chunks, so several
    # are in flight; the census runs its 24 heights on the same pool
    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    def test_worker_pool_census_identical(self, one_thread_outputs, monkeypatch, threads):
        monkeypatch.setenv(tm.ENV_THREADS, threads)
        monkeypatch.setattr("trimoduli.serialize.CHECK_ROWS", 4096)
        assert _pool_outputs() == one_thread_outputs

    def test_worker_count_defaults_to_the_cpus_this_process_may_use(self, monkeypatch):
        monkeypatch.delenv(tm.ENV_THREADS, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False)
        assert tm.worker_count() == 3
        # where there is no affinity call, the CPU count; 1 if it is unknown
        monkeypatch.delattr(os, "sched_getaffinity")
        assert tm.worker_count() == 64
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert tm.worker_count() == 1

    def test_worker_count_env(self, monkeypatch):
        monkeypatch.setenv(tm.ENV_THREADS, "3")
        assert tm.worker_count() == 3
        monkeypatch.setenv(tm.ENV_THREADS, "0")
        with pytest.raises(tm.GuardError):
            tm.worker_count()
        monkeypatch.setenv(tm.ENV_THREADS, "lots")
        with pytest.raises(tm.GuardError):
            tm.worker_count()

    @pytest.mark.parametrize("raw", ["2_0", " 3 "], ids=["underscore", "spaces"])
    def test_worker_count_env_takes_only_decimal_digits(self, monkeypatch, raw):
        monkeypatch.setenv(tm.ENV_THREADS, raw)
        with pytest.raises(tm.GuardError):
            tm.worker_count()

    def test_map_ordered_preserves_order(self):
        from trimoduli.parallel import map_ordered

        args = [(i,) for i in range(7)]
        assert list(map_ordered(_square, args, workers=1)) == [i * i for i in range(7)]
        assert list(map_ordered(_square, args, workers=2)) == [i * i for i in range(7)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_map_ordered_raises_at_the_failing_call(self, workers):
        from trimoduli.parallel import map_ordered

        seen = []
        with pytest.raises(ZeroDivisionError):
            for value in map_ordered(_inverse, [(i,) for i in (4, 2, 1, 0, 5)], workers):
                seen.append(value)
        assert seen == [0.25, 0.5, 1.0]

    def test_map_ordered_runs_a_lone_call_in_the_calling_thread(self):
        import threading

        from trimoduli.parallel import map_ordered

        assert list(map_ordered(threading.get_ident, [()], 2)) == [threading.get_ident()]
        with pytest.raises(ZeroDivisionError):
            list(map_ordered(_inverse, [(0,)], 2))


def _square(i):
    return i * i


def _inverse(i):
    return 1 / i


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

    def test_closed_form_total_matches_grid_formula(self):
        for n in (1, 2, 3, 16, 31, tm.MAX_N):
            side = 2 * n + 1
            expected = math.comb(side * side, 3) - collinear_triples_on_grid(side)
            assert enumeration._triangle_total(n) == expected

    def test_max_n_is_the_analysis_ceiling(self):
        # one ceiling for census and analysis, and its keys pack into int64
        for call in (tm.enumerate_weighted, tm.obtuse_curve, tm.obtuse_point):
            with pytest.raises(tm.GuardError, match=f"got {tm.MAX_N + 1}$"):
                call(tm.MAX_N + 1)
        assert 3 * (8 * tm.MAX_N**2).bit_length() <= 63
