"""Monte Carlo estimators vs closed forms, and stream reproducibility."""

import math
import threading
import tracemalloc

import numpy as np
import pytest

import trimoduli as tm
from trimoduli import randgeom
from trimoduli.moduli import LABELED_PAIRS, normalized_sides, shape_grid
from trimoduli.rng import MAX_SAMPLES, block_generator


@pytest.mark.parametrize(
    "estimate",
    [
        lambda n: tm.obtuse_probability(n, 0),
        lambda n: tm.mean_pair_distance(n, 0),
        lambda n: tm.shape_histogram(n, 4, 0),
    ],
    ids=["obtuse", "distance", "histogram"],
)
@pytest.mark.parametrize("samples", [1000.9, 2000.0])
def test_non_integer_samples_rejected(estimate, samples):
    # int() would truncate 1000.9 to 1000 and run
    with pytest.raises(tm.GuardError):
        estimate(samples)


@pytest.mark.parametrize(
    "estimate",
    [
        lambda seed: tm.obtuse_probability(1000, seed),
        lambda seed: tm.mean_pair_distance(1000, seed),
        lambda seed: tm.shape_histogram(1000, 4, seed),
    ],
    ids=["obtuse", "distance", "histogram"],
)
@pytest.mark.parametrize("seed", [1.7, 1.0, -(1 << 63) - 1, 1 << 64])
def test_seed_outside_64_bit_integers_rejected(estimate, seed):
    # int() would truncate 1.7 to seed 1
    with pytest.raises(tm.GuardError):
        estimate(seed)


class TestReferenceValues:
    def test_langford_constant(self):
        assert tm.langford_obtuse_probability() == 97.0 / 150.0 + math.pi / 40.0

    def test_mean_distance_constant(self):
        expected = (2.0 + math.sqrt(2.0) + 5.0 * math.asinh(1.0)) / 15.0
        assert tm.unit_square_mean_distance() == pytest.approx(expected, abs=1e-16)
        assert tm.unit_square_mean_distance() == pytest.approx(0.5214054331, abs=1e-9)


class TestObtuseEstimator:
    def test_deterministic(self):
        a = tm.obtuse_probability(20_000, 11)
        b = tm.obtuse_probability(20_000, 11)
        assert a == b

    def test_worker_count_does_not_change_result(self, monkeypatch):
        base = tm.obtuse_probability(200_000, 5)
        monkeypatch.setenv(tm.ENV_THREADS, "2")
        assert tm.obtuse_probability(200_000, 5) == base

    def test_huge_thread_count_starts_no_more_threads_than_blocks(self, monkeypatch):
        # 1000 samples are one block, so at most one pool thread can start
        monkeypatch.setenv(tm.ENV_THREADS, "1")
        base = tm.obtuse_probability(1000, 0)
        started = []
        start = threading.Thread.start

        def counted_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted_start)
        monkeypatch.setenv(tm.ENV_THREADS, "1000000")
        before = threading.active_count()
        assert tm.obtuse_probability(1000, 0) == base
        assert len(started) <= 1
        assert threading.active_count() <= before

    def test_close_to_reference(self):
        est = tm.obtuse_probability(100_000, 42)
        assert abs(est.mean - tm.langford_obtuse_probability()) < 6 * est.std_error
        assert est.std_error < 0.002

    def test_seed_changes_draws(self):
        assert tm.obtuse_probability(10_000, 1) != tm.obtuse_probability(10_000, 2)

    def test_error_shrinks_with_samples(self):
        small = tm.obtuse_probability(100_000, 3)
        large = tm.obtuse_probability(400_000, 3)
        assert large.std_error == pytest.approx(small.std_error / 2, rel=0.02)

    def test_sample_guard(self):
        with pytest.raises(tm.GuardError):
            tm.obtuse_probability(10, 0)


class TestDistanceEstimator:
    def test_deterministic(self):
        assert tm.mean_pair_distance(20_000, 11) == tm.mean_pair_distance(20_000, 11)

    def test_close_to_reference(self):
        est = tm.mean_pair_distance(100_000, 42)
        assert abs(est.mean - tm.unit_square_mean_distance()) < 6 * est.std_error
        assert est.std_error < 0.002

    def test_worker_count_does_not_change_result(self, monkeypatch):
        base = tm.mean_pair_distance(200_000, 5)
        monkeypatch.setenv(tm.ENV_THREADS, "2")
        assert tm.mean_pair_distance(200_000, 5) == base


class TestBlockFold:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_block_results_alive_at_once_are_bounded(self, monkeypatch, threads):
        lock = threading.RLock()
        live = {"now": 0, "peak": 0}

        class Counted(float):
            """A block result that counts how many of its kind are alive."""

            def __new__(cls, value):
                with lock:
                    live["now"] += 1
                    live["peak"] = max(live["peak"], live["now"])
                return super().__new__(cls, value)

            def __del__(self):
                with lock:
                    live["now"] -= 1

        def counted_block(seed, index, size):
            return (Counted(size), 0.0)

        monkeypatch.setenv(tm.ENV_THREADS, str(threads))
        monkeypatch.setattr("trimoduli.randgeom._distance_block", counted_block)
        est = tm.mean_pair_distance(20 * tm.BLOCK_SAMPLES, 0)
        assert est.mean == 1.0
        assert live["peak"] <= 2 * threads + 1
        assert live["now"] == 0


class TestHistogram:
    def test_labeled_total_is_six_per_sample(self):
        h = tm.shape_histogram(5_000, 8, 1)
        assert h.total == 6 * 5_000
        assert h.labeled

    def test_single_sample(self):
        h = tm.shape_histogram(1, 4, 0)
        assert h.total == 6

    def test_sorted_mode_respects_moduli_region(self):
        # sorted shapes satisfy a <= b and a + b > 1, so no mass may land
        # strictly below the diagonal or on the far side of the antidiagonal
        h = tm.shape_histogram(5_000, 8, 1, labeled=False)
        assert h.total == 5_000
        for i in range(8):
            for j in range(8):
                if i > j or i + j <= 6:
                    assert h.counts[i, j] == 0

    def test_obtuse_count_matches_estimator(self):
        h = tm.shape_histogram(100_000, 16, 3)
        est = tm.obtuse_probability(100_000, 3)
        assert h.obtuse_count == round(est.mean * est.samples)

    def test_equilateral_bin_populated_but_not_modal(self):
        # mass near the equilateral point is positive yet visibly below the
        # obtuse ridge: the non-equidistribution signal in miniature
        h = tm.shape_histogram(100_000, 16, 3)
        eq = h.counts[10, 10]  # bin containing (2/3, 2/3)
        assert 0 < eq < h.counts.max()

    def test_deterministic_across_workers(self, monkeypatch):
        base = tm.shape_histogram(70_000, 12, 9)
        monkeypatch.setenv(tm.ENV_THREADS, "2")
        again = tm.shape_histogram(70_000, 12, 9)
        assert np.array_equal(base.counts, again.counts)
        assert base.obtuse_count == again.obtuse_count

    def test_bin_guard(self):
        with pytest.raises(tm.GuardError):
            tm.shape_histogram(1_000, 1, 0)
        with pytest.raises(tm.GuardError):
            tm.shape_histogram(1_000, 5_000, 0)

    def test_labeled_grid_is_symmetric(self):
        h = tm.shape_histogram(70_000, 12, 9)
        assert np.array_equal(h.counts, h.counts.T)

    def test_total_validation(self):
        with pytest.raises(ValueError):
            tm.Histogram2D(
                counts=np.zeros((4, 4), dtype=np.int64),
                bin_count=4,
                samples=10,
                seed=0,
                labeled=True,
                obtuse_count=0,
            )

    @pytest.mark.parametrize("obtuse_count", [-1, 2, 7])
    def test_obtuse_count_outside_samples_rejected(self, obtuse_count):
        counts = np.zeros((2, 2), dtype=np.int64)
        counts[1, 1] = 6
        with pytest.raises(tm.GuardError):
            tm.Histogram2D(counts, 2, 1, 0, True, obtuse_count=obtuse_count)

    def test_asymmetric_labeled_counts_rejected(self):
        counts = np.array([[0, 6], [0, 0]], dtype=np.int64)
        assert tm.Histogram2D(counts, 2, 6, 0, False, obtuse_count=0).total == 6
        with pytest.raises(ValueError, match="symmetric"):
            tm.Histogram2D(counts, 2, 1, 0, True, obtuse_count=0)


def _reference_uniforms(gen, count):
    """The whole-block draw: (count, 6) uniforms with exactly collinear rows
    resampled from the same stream, in row order, until none is left."""
    u = gen.random((count, 6))
    while True:
        cross = (u[:, 2] - u[:, 0]) * (u[:, 5] - u[:, 1]) - (u[:, 3] - u[:, 1]) * (
            u[:, 4] - u[:, 0]
        )
        bad = cross == 0.0
        if not bad.any():
            return u
        u[bad] = gen.random((int(bad.sum()), 6))


def _reference_grid(u, bins, labeled):
    """The binning the kernel replaced, over whole-block columns of the
    uniforms u: shape_grid over the six concatenated float projections, or
    over the np.sort of the sides in sorted mode; and the obtuse count."""
    ab = (u[:, 2] - u[:, 0]) ** 2 + (u[:, 3] - u[:, 1]) ** 2
    bc = (u[:, 4] - u[:, 2]) ** 2 + (u[:, 5] - u[:, 3]) ** 2
    ca = (u[:, 0] - u[:, 4]) ** 2 + (u[:, 1] - u[:, 5]) ** 2
    hi = np.maximum(np.maximum(ab, bc), ca)
    obtuse = int(np.count_nonzero(hi > ab + bc + ca - hi + randgeom.OBTUSE_MARGIN))
    sides = normalized_sides(ab, bc, ca)
    if labeled:
        x = np.concatenate([sides[i] for i, _ in LABELED_PAIRS])
        y = np.concatenate([sides[j] for _, j in LABELED_PAIRS])
    else:
        tri = np.sort(np.stack(sides, axis=1), axis=1)
        x, y = tri[:, 0], tri[:, 1]
    return shape_grid((x, y), bins), obtuse


def _reference_block(seed, index, size, bins, labeled):
    u = _reference_uniforms(block_generator(seed, index), size)
    return _reference_grid(u, bins, labeled)


@pytest.mark.parametrize("labeled", [True, False], ids=["labeled", "sorted"])
@pytest.mark.parametrize("size", [1, 5, tm.BLOCK_SAMPLES])
@pytest.mark.parametrize("bins", [2, 7, 64, 4096])
def test_histogram_block_matches_reference(bins, size, labeled):
    # a labeled block holds the half-grid H; shape_histogram adds H^T at the end
    for seed, index in ((0, 0), (3, 1), (-5, 152)):
        grid, obtuse = randgeom._histogram_block(seed, index, size, bins, labeled)
        if labeled:
            grid = grid + grid.T
        ref_grid, ref_obtuse = _reference_block(seed, index, size, bins, labeled)
        assert np.array_equal(grid, ref_grid)
        assert obtuse == ref_obtuse


class _Draws:
    """A stand-in generator whose random() hands out the given arrays in
    turn, each checked against the shape asked for."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def random(self, shape):
        draw = self.draws.pop(0)
        assert draw.shape == shape
        return draw.copy()


class TestCollinearResample:
    LINE = (0.0, 0.0, 0.5, 0.5, 0.25, 0.25)  # c is the midpoint of a and b

    def draws(self):
        """A block whose rows SLICE_ROWS - 1 and SLICE_ROWS, the ends of two
        slices, are collinear, and whose first resample is collinear again;
        and the uniforms the stream must leave."""
        last = randgeom.SLICE_ROWS
        first = np.random.default_rng(1).random((last + 5, 6))
        first[[last - 1, last]] = self.LINE
        second = np.array([self.LINE, (0.1, 0.2, 0.9, 0.3, 0.4, 0.8)])
        third = np.array([(0.7, 0.1, 0.2, 0.6, 0.9, 0.9)])
        expected = first.copy()
        expected[last - 1] = third[0]
        expected[last] = second[1]
        return (first, second, third), expected

    def test_rows_are_resampled_from_the_stream_in_row_order(self):
        draws, expected = self.draws()
        gen = _Draws(*draws)
        u = randgeom._triangle_uniforms(gen, len(expected))
        assert np.array_equal(u, expected)
        assert gen.draws == []
        assert np.array_equal(_reference_uniforms(_Draws(*draws), len(expected)), expected)

    def test_blocks_bin_the_resampled_rows(self, monkeypatch):
        draws, expected = self.draws()
        monkeypatch.setattr(randgeom, "block_generator", lambda seed, index: _Draws(*draws))
        size = len(expected)
        _, ref_hits = _reference_grid(expected, 2, True)
        assert randgeom._obtuse_block(0, 0, size) == (ref_hits,)
        for bins in (7, 64):
            for labeled in (True, False):
                grid, obtuse = randgeom._histogram_block(0, 0, size, bins, labeled)
                if labeled:
                    grid = grid + grid.T
                ref_grid, ref_obtuse = _reference_grid(expected, bins, labeled)
                assert np.array_equal(grid, ref_grid)
                assert obtuse == ref_obtuse


def _slice_results():
    out = []
    for size in (1, 5, 1000):
        out.append(randgeom._obtuse_block(3, 1, size))
        out.append(randgeom._distance_block(3, 1, size))
        for labeled in (True, False):
            grid, obtuse = randgeom._histogram_block(3, 1, size, 7, labeled)
            out.append((grid.tolist(), obtuse))
    for labeled in (True, False):
        h = tm.shape_histogram(1000, 7, 3, labeled)
        out.append((h.counts.tolist(), h.obtuse_count))
    return out


@pytest.mark.parametrize("slice_rows", [1, 7, tm.BLOCK_SAMPLES])
def test_slice_split_invariance(monkeypatch, slice_rows):
    base = _slice_results()
    monkeypatch.setattr(randgeom, "SLICE_ROWS", slice_rows)
    assert _slice_results() == base


@pytest.mark.parametrize(
    "block,bound",
    [
        (lambda: randgeom._obtuse_block(0, 0, tm.BLOCK_SAMPLES), 1.5),
        (lambda: randgeom._histogram_block(0, 0, tm.BLOCK_SAMPLES, 64, True), 2.5),
    ],
    ids=["obtuse", "histogram64"],
)
def test_block_peak_is_bounded_by_its_uniforms(block, bound):
    # a full block's uniforms are BLOCK_SAMPLES x 6 float64, 3 MiB; the
    # passes after the draw work on slices of SLICE_ROWS rows
    uniforms = tm.BLOCK_SAMPLES * 6 * 8
    block()
    tracemalloc.start()
    try:
        block()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * uniforms


class TestMcEstimate:
    def test_validation(self):
        with pytest.raises(ValueError):
            tm.McEstimate(mean=0.5, std_error=-0.1, samples=10, seed=0)
        with pytest.raises(ValueError):
            tm.McEstimate(mean=0.5, std_error=0.1, samples=0, seed=0)

    @pytest.mark.parametrize(
        "fields",
        [
            {"mean": math.nan},
            {"mean": math.inf},
            {"std_error": math.inf},
            {"std_error": math.nan},
            {"mean": "0.5"},
            {"samples": True},
            {"samples": 10.0},
            {"samples": MAX_SAMPLES + 1},
            {"seed": True},
            {"seed": 1 << 64},
        ],
        ids=repr,
    )
    def test_fields_outside_their_range_rejected(self, fields):
        # mean=nan, std_error=inf would export as NaN and Infinity, which are not JSON
        good = {"mean": 0.5, "std_error": 0.1, "samples": 10, "seed": 0}
        with pytest.raises(tm.GuardError):
            tm.McEstimate(**{**good, **fields})
