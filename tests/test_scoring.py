"""Batched classifier scoring: each training set of a batch gets the scores it
gets alone, bit for bit, from the naive oracles.

The sets are drawn as the inner folds of a sweep make them: row subsets of
one fold's points in stacked order (majority rows, then minority rows),
with duplicate rows, random-oversampling copies and SMOTE rows, on integer
grids (distance ties) or Gaussian draws, in 1 to 8 dimensions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbu import ParameterError, neighbors
from rbu.modeling import GaussianNbClassifier, KnnClassifier, _runs

from oracles import naive_gnb, naive_knn_scores

MAX_ROWS = 60


def fold_points(rng, n, m, grid):
    if grid:
        return rng.integers(0, 3, size=(n, m)).astype(np.float64)
    return rng.normal(size=(n, m)) * 10.0 ** rng.uniform(-3, 3)


def resampled_set(rng, kind, majority, minority, k):
    """One training set drawn from a fold's points, as a resampler makes it."""
    if kind == "subset":  # RUS, ENN, Tomek, RBU: kept majority rows
        kept = rng.random(len(majority)) < 0.6
        kept[rng.integers(0, len(majority))] = True
        majority = majority[kept]
    elif kind == "ros":  # copies of minority rows after the originals
        copies = rng.integers(0, len(minority), size=len(majority))
        minority = np.vstack([minority, minority[copies]])
    elif kind == "smote":  # synthetic rows between minority pairs
        pairs = rng.integers(0, len(minority), size=(len(majority), 2))
        gaps = rng.random((len(pairs), 1))
        base = minority[pairs[:, 0]]
        minority = np.vstack([minority, base + gaps * (minority[pairs[:, 1]] - base)])
    else:  # duplicate majority rows in place
        majority = majority[np.sort(rng.integers(0, len(majority), size=len(majority)))]
    majority = majority[: max(1, MAX_ROWS - len(minority))]
    minority = minority[: MAX_ROWS - len(majority)]
    while len(majority) + len(minority) < max(k, 2):
        minority = np.vstack([minority, minority[:1]])
    return np.vstack([majority, minority]), np.repeat([0, 1], [len(majority), len(minority)])


@st.composite
def batches(draw, far=False):
    """``(sets, queries, k)``: 1 to 20 training sets of k to 60 rows with both
    classes, stacked or shuffled, and up to 30 queries (some of them training
    rows, so distance ties to zero).  With ``far``, some majority rows may lie
    so far out that their distances overflow to infinity."""
    m, k = draw(st.integers(1, 8)), draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = draw(st.booleans())
    majority = fold_points(rng, draw(st.integers(1, 40)), m, grid)
    if far and draw(st.booleans()):
        majority[rng.random(len(majority)) < 0.5] *= 1e200
    minority = fold_points(rng, draw(st.integers(1, 20)), m, grid) + (0.0 if grid else 0.5)
    sets = []
    for _ in range(draw(st.integers(1, 20))):
        kind = draw(st.sampled_from(["subset", "ros", "smote", "duplicates"]))
        points, labels = resampled_set(rng, kind, majority, minority, k)
        if draw(st.booleans()):  # labels in any order, as a caller's fit may pass them
            order = rng.permutation(len(labels))
            points, labels = points[order], labels[order]
        sets.append((points, labels))
    count = draw(st.integers(1, 30))
    pool = np.vstack([majority, minority])
    queries = np.vstack([pool[rng.integers(0, len(pool), size=count // 2)],
                         fold_points(rng, count - count // 2, m, grid)])
    return sets, queries, k


# How much of neighbors._BLOCK a batch may use: all of it, about one set's
# arrays (split between sets), or one entry (one set and one test row).
BLOCKS = ("default", "one set", "one row")


def block_entries(block, widest):
    return {"default": neighbors._BLOCK, "one set": widest, "one row": 1}[block]


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestBatchedScoring:
    # The example count comes from the loaded hypothesis profile (the "ci"
    # profile in conftest.py runs ten times more).
    @settings(derandomize=True, deadline=None)
    @given(batches(far=True), st.sampled_from(BLOCKS))
    def test_knn_matches_naive_scores(self, batch, block):
        sets, queries, k = batch
        model = KnnClassifier(k)
        checked = [model.training_set(points, labels) for points, labels in sets]
        widest = len(queries) * max(len(points) for points, _ in sets)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(neighbors, "_BLOCK", block_entries(block, widest))
            got = model.score_sets(checked, queries)
            alone = KnnClassifier(k).fit(*sets[-1]).score_samples(queries)
        assert_same_bits(got, [naive_knn_scores(p, y, queries, k) for p, y in sets])
        assert_same_bits(alone, got[-1])

    @settings(derandomize=True, deadline=None)
    @given(batches(), st.sampled_from(BLOCKS))
    def test_gnb_matches_naive_scores(self, batch, block):
        sets, queries, _ = batch
        model = GaussianNbClassifier()
        checked = [model.training_set(points, labels) for points, labels in sets]
        widest = queries.shape[1] * max(3 * max(len(p) for p, _ in sets), 2 * len(queries))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(neighbors, "_BLOCK", block_entries(block, widest))
            got = model.score_sets(checked, queries)
            alone = GaussianNbClassifier().fit(*sets[-1])
            alone_scores = alone.score_samples(queries)
        assert_same_bits(got, [naive_gnb(p, y, queries)[2] for p, y in sets])
        means, variances, _ = naive_gnb(*sets[-1], queries)
        assert_same_bits(alone._means, means)
        assert_same_bits(alone._vars, variances)
        assert_same_bits(alone_scores, got[-1])

    @pytest.mark.parametrize("model", [KnnClassifier(2), GaussianNbClassifier()])
    def test_empty_batch_and_no_queries(self, model):
        points, labels = np.arange(8.0).reshape(4, 2), np.array([0, 1, 0, 1])
        assert model.score_sets([], np.zeros((3, 2))).shape == (0, 3)
        checked = [model.training_set(points, labels)] * 3
        assert model.score_sets(checked, np.zeros((0, 2))).shape == (3, 0)


class TestRuns:
    def test_sets_share_a_run_while_it_fits_the_block(self, monkeypatch):
        monkeypatch.setattr(neighbors, "_BLOCK", 12)
        # Widths 3, 4, 2, 6, 13, 1: (3, 4, 2) holds 3 x 4 = 12 entries, (6) and
        # (13) fit with no other set, (1) starts a new run.
        assert _runs([3, 4, 2, 6, 13, 1]) == [range(0, 3), range(3, 4), range(4, 5), range(5, 6)]

    def test_one_entry_gives_one_set_per_run(self, monkeypatch):
        monkeypatch.setattr(neighbors, "_BLOCK", 1)
        assert _runs([5, 1, 7]) == [range(0, 1), range(1, 2), range(2, 3)]
        assert _runs([]) == []


class TestRefusals:
    @pytest.mark.parametrize("model", [KnnClassifier(1), GaussianNbClassifier()])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_refused_at_fit(self, model, bad):
        points = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0], [3.0, 1.0]])
        points[2, 1] = bad
        with pytest.raises(ParameterError, match="coordinates must be finite"):
            model.fit(points, np.array([0, 1, 0, 1]))
        with pytest.raises(ParameterError, match="coordinates must be finite"):
            model.training_set(points, np.array([0, 1, 0, 1]))

    def test_knn_refusals_per_set(self):
        model = KnnClassifier(3)
        with pytest.raises(ParameterError, match="empty training set"):
            model.training_set(np.empty((0, 2)), np.empty(0))
        with pytest.raises(ParameterError, match="k=3 exceeds training size 2"):
            model.training_set(np.zeros((2, 2)), np.array([0, 1]))

    def test_gnb_refuses_one_class(self):
        with pytest.raises(ParameterError, match="both classes"):
            GaussianNbClassifier().training_set(np.zeros((3, 2)), np.zeros(3))
