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
from rbu.neighbors import distance_blocks, nearest_neighbors

from oracles import make_task


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


# Point counts on both sides of neighbors._SORT_COLUMNS, so that both the
# sort and the argmin rounds run.
SIZES = [(7, 3), (30, 2), (90, 3)]


class TestDistanceBlocks:
    @pytest.mark.parametrize("block, rows", [(None, 25), (1, 1), (3 * 7, 3), (10 * 7 - 1, 9)])
    def test_blocks_tile_the_distance_matrix(self, block, rows, monkeypatch):
        rng = np.random.default_rng(3)
        queries, points = rng.normal(size=(25, 2)), rng.normal(size=(7, 2))
        if block is not None:
            monkeypatch.setattr(neighbors, "_BLOCK", block)
        blocks = [
            (start, dist.copy())  # each block overwrites the last
            for start, dist in distance_blocks(queries, points, "minkowski", p=3.0)
        ]
        assert [start for start, _ in blocks] == list(range(0, 25, rows))
        np.testing.assert_array_equal(
            np.vstack([dist for _, dist in blocks]), cdist(queries, points, "minkowski", p=3.0)
        )

    def test_no_points_gives_empty_rows(self):
        ((start, dist),) = distance_blocks(np.zeros((4, 2)), np.empty((0, 2)))
        assert start == 0 and dist.shape == (4, 0)


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
    def test_overflowing_distances(self, n_points, m):
        # Coordinates 0 or 1e200 apart: most distances overflow to infinity
        # and tie there, and the masks must not tie with them.
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
