import sys
import threading
import warnings

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from rbu import KnnClassifier, ParameterError, categorize_minority, neighbors
from rbu.baselines import (
    enn_kept_indices,
    near_miss_kept_indices,
    renn_kept_indices,
    smote_synthetic,
    tomek_kept_indices,
)
from rbu.neighbors import for_each_block, nearest_neighbors
from rbu.potential import _rbf_sums, check_gamma, init_field

from oracles import make_task, random_task


def argsort_oracle(queries, points, k, self_offset=None, **metric):
    """First k columns of a stable argsort, own points sorted after all others."""
    dist = cdist(queries, points, **metric)
    candidates = len(points)
    if self_offset is not None:
        dist[np.arange(len(queries)), self_offset + np.arange(len(queries))] = np.nan
        candidates -= 1
    return np.argsort(dist, axis=1, kind="stable")[:, : min(k, candidates)]


def grid_points(rng, n, m, scale=1.0):
    """Integer coordinates in {0..3}: most distances tie with others."""
    return rng.integers(0, 4, size=(n, m)) * scale


def count_cdist_calls(monkeypatch):
    """Patch ``neighbors.cdist`` to record the query rows of each call."""
    calls = []

    def counting_cdist(queries, *args, **kwargs):
        calls.append(len(queries))
        return cdist(queries, *args, **kwargs)

    monkeypatch.setattr(neighbors, "cdist", counting_cdist)
    return calls


def set_cpus(monkeypatch, count):
    """Have ``for_each_block`` run on ``count`` CPUs."""
    monkeypatch.setattr(neighbors, "_cpu_count", lambda: count)


def count_threads(monkeypatch):
    """Patch ``neighbors.Thread`` to record each thread it starts."""
    started = []

    class CountingThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(neighbors, "Thread", CountingThread)
    return started


def blocks_of(queries, points, *args, **kwargs):
    """``(start, distances)`` of every block ``for_each_block`` makes, by start."""
    blocks = []
    # Each block overwrites the last in its thread's buffer.
    for_each_block(
        queries, points, lambda start, dist: blocks.append((start, dist.copy())), *args, **kwargs
    )
    return sorted(blocks, key=lambda block: block[0])


# Point counts on both sides of neighbors._SORT_COLUMNS, so that both the
# sort and the argmin rounds run.
SIZES = [(7, 3), (30, 2), (90, 3)]


class TestDistanceBlocks:
    @pytest.mark.parametrize("block, rows", [(None, 25), (1, 1), (3 * 7, 3), (10 * 7 - 1, 9)])
    def test_blocks_tile_the_distance_matrix(self, block, rows, monkeypatch):
        set_cpus(monkeypatch, 1)
        rng = np.random.default_rng(3)
        queries, points = rng.normal(size=(25, 2)), rng.normal(size=(7, 2))
        if block is not None:
            monkeypatch.setattr(neighbors, "_BLOCK", block)
        blocks = blocks_of(queries, points, "minkowski", p=3.0)
        assert [start for start, _ in blocks] == list(range(0, 25, rows))
        np.testing.assert_array_equal(
            np.vstack([dist for _, dist in blocks]), cdist(queries, points, "minkowski", p=3.0)
        )

    def test_no_points_gives_empty_rows(self):
        ((start, dist),) = blocks_of(np.zeros((4, 2)), np.empty((0, 2)))
        assert start == 0 and dist.shape == (4, 0)


class TestThreadedBlocks:
    # (block, rows per thread for 1, 2 and 3 threads) with 7 points and 25
    # queries; one thread per block when there are fewer blocks than threads.
    @pytest.mark.parametrize(
        "block, rows",
        [(None, (25, 25, 25)), (1, (1, 1, 1)), (6 * 7, (6, 3, 2)), (7 * 7, (7, 3, 2))],
    )
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_threads_tile_the_distance_matrix(self, cpus, block, rows, monkeypatch):
        set_cpus(monkeypatch, cpus)
        started = count_threads(monkeypatch)
        rng = np.random.default_rng(4)
        queries, points = rng.normal(size=(25, 2)), rng.normal(size=(7, 2))
        if block is not None:
            monkeypatch.setattr(neighbors, "_BLOCK", block)
        blocks = blocks_of(queries, points, "minkowski", p=3.0)
        step = rows[cpus - 1]
        assert [start for start, _ in blocks] == list(range(0, 25, step))
        np.testing.assert_array_equal(
            np.vstack([dist for _, dist in blocks]), cdist(queries, points, "minkowski", p=3.0)
        )
        # The caller takes a share; a call of one block starts no thread.
        assert len(started) == min(cpus, len(blocks)) - 1

    @pytest.mark.parametrize("cpus", [4, 5, 16])
    def test_blocks_split_in_at_most_max_split_parts(self, cpus, monkeypatch):
        # Many CPUs would leave each thread one-row blocks; the blocks stay
        # at a quarter of the budget instead, and every CPU still gets a thread.
        assert neighbors._MAX_SPLIT == 4
        set_cpus(monkeypatch, cpus)
        started = count_threads(monkeypatch)
        monkeypatch.setattr(neighbors, "_BLOCK", 16 * 3)  # 16 rows of 3 points
        rng = np.random.default_rng(6)
        queries, points = rng.normal(size=(100, 2)), rng.normal(size=(3, 2))
        blocks = blocks_of(queries, points)
        assert [start for start, _ in blocks] == list(range(0, 100, 4))
        np.testing.assert_array_equal(np.vstack([d for _, d in blocks]), cdist(queries, points))
        assert len(started) == cpus - 1

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_fewer_blocks_than_threads(self, cpus, monkeypatch):
        set_cpus(monkeypatch, cpus)
        started = count_threads(monkeypatch)
        monkeypatch.setattr(neighbors, "_BLOCK", 1)
        queries, points = np.array([[0.0], [1.0]]), np.array([[0.5], [2.0]])
        blocks = blocks_of(queries, points)
        assert [start for start, _ in blocks] == [0, 1] and len(started) == 1
        np.testing.assert_array_equal(np.vstack([d for _, d in blocks]), cdist(queries, points))

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_empty_queries(self, cpus, monkeypatch):
        set_cpus(monkeypatch, cpus)
        monkeypatch.setattr(neighbors, "_BLOCK", 1)
        assert blocks_of(np.empty((0, 2)), np.zeros((3, 2))) == []
        assert nearest_neighbors(np.empty((0, 2)), np.zeros((3, 2)), 2).shape == (0, 2)

    def test_single_thread_blocks_starts_no_thread(self, monkeypatch):
        set_cpus(monkeypatch, 3)
        started = count_threads(monkeypatch)
        monkeypatch.setattr(neighbors, "_BLOCK", 1)
        monkeypatch.setattr(neighbors, "_single_thread", False)
        neighbors.single_thread_blocks()
        blocks = blocks_of(np.zeros((5, 1)), np.zeros((2, 1)))
        assert [start for start, _ in blocks] == [0, 1, 2, 3, 4] and started == []

    def test_every_block_runs_once_under_stress(self, monkeypatch):
        # More threads than cores, switching as often as the interpreter
        # allows: a start handed out twice or lost would show.
        set_cpus(monkeypatch, 8)
        monkeypatch.setattr(neighbors, "_BLOCK", neighbors._MAX_SPLIT * 3)  # one-row blocks
        rng = np.random.default_rng(5)
        queries, points = rng.normal(size=(500, 2)), rng.normal(size=(3, 2))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                blocks = blocks_of(queries, points)
                assert [start for start, _ in blocks] == list(range(500))
                np.testing.assert_array_equal(
                    np.vstack([dist for _, dist in blocks]), cdist(queries, points)
                )
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("raiser", ["worker", "caller"])
    def test_exception_reaches_the_caller(self, raiser, monkeypatch):
        set_cpus(monkeypatch, 3)
        monkeypatch.setattr(neighbors, "_BLOCK", 1)
        ran = {"caller": threading.Event(), "worker": threading.Event()}
        on_caller = threading.current_thread()

        def body(start, dist):
            side, other = "caller", "worker"
            if threading.current_thread() is not on_caller:
                side, other = other, side
            ran[side].set()
            ran[other].wait(timeout=10)  # both sides take a block before either raises
            if side == raiser:
                raise ValueError(f"{side} block failed")

        before = threading.active_count()
        with pytest.raises(ValueError, match=f"{raiser} block failed"):
            for_each_block(np.zeros((40, 1)), np.zeros((1, 1)), body)
        assert ran["caller"].is_set() and ran["worker"].is_set()
        assert threading.active_count() == before  # no thread outlives the call

    def test_rbf_sums_overflow_stays_quiet_on_threads(self, monkeypatch):
        # d^2 / gamma^2 past the float range on every thread: np.errstate is
        # per thread, so the block body must set it.
        set_cpus(monkeypatch, 3)
        monkeypatch.setattr(neighbors, "_BLOCK", 2)
        queries = np.array([[0.0], [1e154], [2.0], [-1e154], [1.0], [3.0]])
        points = np.array([[0.0], [1.5e154]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sums = _rbf_sums(queries, points, check_gamma(1e-3))
        np.testing.assert_array_equal(sums, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0])


class TestThreadsMatchSerial:
    """Every block body writes only its own rows, so any thread count and
    block size gives the serial, unblocked result bit for bit."""

    CASES = [(cpus, block) for cpus in (1, 2, 3) for block in ("one row", "three rows")]

    @staticmethod
    def threaded(monkeypatch, cpus, block, row_entries):
        set_cpus(monkeypatch, cpus)
        monkeypatch.setattr(neighbors, "_BLOCK", 1 if block == "one row" else 3 * row_entries)

    @pytest.mark.parametrize("cpus, block", CASES)
    def test_rbf_sums_and_init_field(self, cpus, block, monkeypatch):
        rng = np.random.default_rng(40)
        task = random_task(rng, 45, 14, 3)
        queries = rng.normal(size=(20, 3))
        inv_g2 = check_gamma(0.7)
        whole = (_rbf_sums(queries, task.majority, inv_g2), init_field(task, 0.7).phi)
        self.threaded(monkeypatch, cpus, block, task.n_majority)
        got = (_rbf_sums(queries, task.majority, inv_g2), init_field(task, 0.7).phi)
        for threaded, serial in zip(got, whole):
            np.testing.assert_array_equal(threaded, serial)

    @pytest.mark.parametrize("cpus, block", CASES)
    def test_nearest_neighbors(self, cpus, block, monkeypatch):
        rng = np.random.default_rng(41)
        points = grid_points(rng, 60, 2)  # many ties
        points[::3] = grid_points(rng, 20, 2, scale=1e200)  # overflowing distances
        queries = grid_points(rng, 17, 2)
        calls = [
            (queries, points, 1, {}),
            (queries, points, 7, {}),
            (points, points, 5, {"self_offset": 0}),
            (points[10:40], points, 60, {"self_offset": 10}),
            (points[10:], points, 4, {"self_offset": 10, "metric": "minkowski", "p": 3.0}),
        ]
        whole = [nearest_neighbors(q, p, k, **kw) for q, p, k, kw in calls]
        self.threaded(monkeypatch, cpus, block, len(points))
        for (q, p, k, kw), serial in zip(calls, whole):
            np.testing.assert_array_equal(nearest_neighbors(q, p, k, **kw), serial)

    @pytest.mark.parametrize("cpus, block", CASES)
    def test_near_miss(self, cpus, block, monkeypatch):
        rng = np.random.default_rng(42)
        task = make_task(grid_points(rng, 50, 2), grid_points(rng, 9, 2))
        settings = [(k, ratio) for k in (1, 3, 20) for ratio in (0.5, 1.0)]
        whole = [near_miss_kept_indices(task, k, ratio) for k, ratio in settings]
        self.threaded(monkeypatch, cpus, block, task.n_minority)
        for (k, ratio), serial in zip(settings, whole):
            np.testing.assert_array_equal(near_miss_kept_indices(task, k, ratio), serial)


class TestMatchesStableArgsort:
    @pytest.mark.parametrize("block", [None, "small"])
    @pytest.mark.parametrize("n_points, m", SIZES)
    def test_every_k_without_self(self, n_points, m, block, monkeypatch):
        rng = np.random.default_rng(n_points)
        points = grid_points(rng, n_points, m)
        queries = grid_points(rng, 25, m)
        if block == "small":
            monkeypatch.setattr(neighbors, "_BLOCK", 3 * n_points)  # 3 rows per block
        for k in range(1, n_points + 3):
            expected = argsort_oracle(queries, points, k)
            np.testing.assert_array_equal(nearest_neighbors(queries, points, k), expected)

    @pytest.mark.parametrize("block", [None, "small"])
    @pytest.mark.parametrize("n_points, m", SIZES)
    def test_every_k_with_self_offset(self, n_points, m, block, monkeypatch):
        rng = np.random.default_rng(n_points + 1)
        points = grid_points(rng, n_points, m)
        if block == "small":
            monkeypatch.setattr(neighbors, "_BLOCK", 3 * n_points)
        for offset, count in ((0, n_points), (n_points // 3, n_points - n_points // 3)):
            queries = points[offset : offset + count]
            for k in range(1, n_points + 2):
                expected = argsort_oracle(queries, points, k, self_offset=offset)
                got = nearest_neighbors(queries, points, k, self_offset=offset)
                np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("n_points, m", SIZES)
    def test_overflowing_distances(self, n_points, m, monkeypatch):
        # Coordinates 0 or 1e200 apart: most distances overflow to infinity
        # and tie there, and the masks must not tie with them.  Undoing the
        # masks takes no second distance computation.
        calls = count_cdist_calls(monkeypatch)
        rng = np.random.default_rng(n_points + 2)
        points = grid_points(rng, n_points, m, scale=1e200)
        points[: n_points // 2] = grid_points(rng, n_points // 2, m)
        for k in range(1, n_points + 2):
            np.testing.assert_array_equal(
                nearest_neighbors(points, points, k), argsort_oracle(points, points, k)
            )
            np.testing.assert_array_equal(
                nearest_neighbors(points, points, k, self_offset=0),
                argsort_oracle(points, points, k, self_offset=0),
            )
        assert len(calls) == 2 * (n_points + 1)  # one block per search

    def test_masks_undone_before_the_sort(self, monkeypatch):
        # Queries 0-2 have three finite distances, to points 0-2; every other
        # distance overflows.  Round four of argmin picks masked point 0
        # again, and its first recorded distance must win.
        calls = count_cdist_calls(monkeypatch)
        points = np.concatenate([[0.0, 1.0, 2.0], 1e200 * np.arange(1.0, 48.0)])[:, None]
        assert len(points) > neighbors._SORT_COLUMNS
        got = nearest_neighbors(points[:3], points, 5)
        np.testing.assert_array_equal(got, argsort_oracle(points[:3], points, 5))
        assert got[0].tolist() == [0, 1, 2, 3, 4] and calls == [3]

    @pytest.mark.parametrize("n_points, m", SIZES)
    def test_one_cdist_call_per_block(self, n_points, m, monkeypatch):
        calls = count_cdist_calls(monkeypatch)
        set_cpus(monkeypatch, 1)  # threads split blocks further
        monkeypatch.setattr(neighbors, "_BLOCK", 3 * n_points)  # 3 rows per block
        rng = np.random.default_rng(n_points + 3)
        points = grid_points(rng, n_points, m, scale=1e200)
        points[::2] = grid_points(rng, len(points[::2]), m)
        for k in (1, 2, 5, n_points):
            del calls[:]
            got = nearest_neighbors(points, points, k, self_offset=0)
            np.testing.assert_array_equal(got, argsort_oracle(points, points, k, self_offset=0))
            assert calls == [len(points[start : start + 3]) for start in range(0, n_points, 3)]

    @pytest.mark.parametrize("p", [1.0, 3.0])
    def test_minkowski_metric(self, p):
        rng = np.random.default_rng(17)
        points = grid_points(rng, 60, 3)
        got = nearest_neighbors(points[10:], points, 5, self_offset=10, metric="minkowski", p=p)
        expected = argsort_oracle(points[10:], points, 5, self_offset=10, metric="minkowski", p=p)
        np.testing.assert_array_equal(got, expected)

    def test_self_offset_must_cover_the_queries(self):
        points = np.zeros((5, 2))
        with pytest.raises(ParameterError, match="contiguous"):
            nearest_neighbors(points, points, 1, self_offset=1)


def _knn_scores(task):
    model = KnnClassifier(k=1).fit(task.majority, np.zeros(task.n_majority))
    return model.score_samples(task.minority)


NEIGHBOUR_METHODS = {
    "smote": lambda task: smote_synthetic(task, 3, 1.0, seed=0),
    "enn": lambda task: enn_kept_indices(task, 3),
    "renn": lambda task: renn_kept_indices(task, 3),
    "tomek": tomek_kept_indices,
    "near_miss": lambda task: near_miss_kept_indices(task, 3, 1.0),
    "categorize": lambda task: categorize_minority(task, k=3),
    "knn": _knn_scores,
}


@pytest.mark.parametrize(
    "method, where",
    # SMOTE never measures distances to the majority.
    [(m, w) for m in sorted(NEIGHBOUR_METHODS) for w in (0, 1) if (m, w) != ("smote", 0)],
)
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_coordinates_refused(method, where, value):
    rng = np.random.default_rng(18)
    classes = [rng.normal(size=(12, 2)), rng.normal(size=(5, 2))]  # majority, minority
    classes[where][2, 1] = value
    with pytest.raises(ParameterError, match="finite"):
        NEIGHBOUR_METHODS[method](make_task(*classes))
