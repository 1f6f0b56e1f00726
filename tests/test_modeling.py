import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

import rbu

from rbu import (
    GaussianNbClassifier,
    KnnClassifier,
    ParameterError,
    auc_score,
    compute_metrics,
    confusion,
    make_classifier,
)
from rbu.modeling import (
    METRIC_NAMES,
    f_measure_score,
    g_mean_score,
    midranks,
    precision_score,
    predict_labels,
    recall_score,
)

from oracles import naive_gnb, naive_metrics


class TestKnn:
    def test_training_point_score_with_k1(self):
        X = np.array([[0.0, 0.0], [5.0, 5.0]])
        y = np.array([0, 1])
        model = KnnClassifier(k=1).fit(X, y)
        assert model.score_samples(X).tolist() == [0.0, 1.0]
        assert predict_labels(model.score_samples(X)).tolist() == [0, 1]

    def test_all_minority_neighbors(self):
        X = np.array([[0.0], [0.1], [0.2]])
        model = KnnClassifier(k=3).fit(X, np.array([1, 1, 1]))
        assert model.score_samples(np.array([[0.05]]))[0] == 1.0

    def test_two_of_five_votes_majority(self):
        X = np.array([[0.0], [0.1], [0.2], [0.3], [0.4], [9.0]])
        y = np.array([1, 1, 0, 0, 0, 1])
        model = KnnClassifier(k=5).fit(X, y)
        score = model.score_samples(np.array([[0.05]]))[0]
        assert score == pytest.approx(0.4)
        assert predict_labels([score])[0] == 0

    def test_exact_half_score_predicts_majority(self):
        X = np.array([[0.0], [1.0]])
        model = KnnClassifier(k=2).fit(X, np.array([0, 1]))
        score = model.score_samples(np.array([[0.5]]))[0]
        assert score == 0.5
        assert predict_labels([score])[0] == 0

    def test_k_exceeds_training_size(self):
        with pytest.raises(ParameterError, match="exceeds"):
            KnnClassifier(k=5).fit(np.zeros((3, 1)), np.array([0, 1, 0]))

    def test_empty_training_set(self):
        with pytest.raises(ParameterError, match="empty"):
            KnnClassifier(k=1).fit(np.zeros((0, 2)), np.array([]))

    def test_labels_outside_zero_one_refused(self):
        with pytest.raises(ParameterError, match="0 or 1"):
            KnnClassifier(k=2).fit(np.arange(6.0)[:, None], np.array([0, 2, 2, 1, 0, 2]))

    @pytest.mark.parametrize("n_labels", [8, 2])
    def test_label_count_must_match_rows(self, n_labels):
        with pytest.raises(ParameterError, match="5 feature rows but"):
            KnnClassifier(k=1).fit(np.arange(5.0)[:, None], np.arange(n_labels) % 2)

    def test_distance_tie_prefers_lower_train_index(self):
        X = np.array([[1.0], [-1.0], [9.0]])
        y = np.array([1, 0, 0])
        model = KnnClassifier(k=1).fit(X, y)
        assert model.score_samples(np.array([[0.0]]))[0] == 1.0


class TestGaussianNb:
    def test_symmetric_midpoint(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([0, 1])
        model = GaussianNbClassifier().fit(X, y)
        score = model.score_samples(np.array([[0.0]]))[0]
        assert score == pytest.approx(0.5, abs=1e-12)
        assert predict_labels([score])[0] == 0  # tie goes to majority

    def test_at_minority_mean(self):
        rng = np.random.default_rng(31)
        X0 = rng.normal(0.0, 0.3, size=(40, 2))
        X1 = rng.normal(8.0, 0.3, size=(15, 2))
        model = GaussianNbClassifier().fit(
            np.vstack([X0, X1]), np.array([0] * 40 + [1] * 15)
        )
        assert model.score_samples(np.array([[8.0, 8.0]]))[0] > 0.5

    def test_closed_form_one_dimensional_oracle(self):
        # classes with means 0 and 1, equal unit variance, equal priors;
        # posterior at x = 0.25 frozen from the closed-form Gaussian ratio
        X = np.array([[-1.0], [1.0], [0.0], [2.0]])
        y = np.array([0, 0, 1, 1])
        model = GaussianNbClassifier().fit(X, y)
        posterior = model.score_samples(np.array([[0.25]]))[0]
        assert posterior == pytest.approx(0.4378234991142019, abs=1e-6)

    def test_single_class_training_rejected(self):
        with pytest.raises(ParameterError, match="both classes"):
            GaussianNbClassifier().fit(np.zeros((3, 1)), np.array([1, 1, 1]))

    def test_posterior_strictly_inside_unit_interval(self):
        # point-mass features must not produce hard 0/1 posteriors
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0, 0, 1, 1])
        model = GaussianNbClassifier().fit(X, y)
        scores = model.score_samples(np.array([[0.0], [1.0], [0.5]]))
        assert np.all(scores > 0.0) and np.all(scores < 1.0)

    def test_priors_shift_posterior(self):
        X = np.array([[-1.0], [1.0], [-1.2], [0.8], [1.1]])
        y = np.array([0, 1, 0, 0, 1])
        model = GaussianNbClassifier().fit(X, y)
        assert model._priors.tolist() == [0.6, 0.4]
        assert model._priors.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("m", range(1, 12))
    def test_fit_and_score_match_naive_gnb_bit_for_bit(self, m):
        # m > 8 crosses numpy's pairwise-summation block over the features.
        rng = np.random.default_rng([61, m])
        for n in (2, 7, 30, 61):
            labels = rng.permutation(np.arange(n) % 3 == 0).astype(np.int64)
            for features in (
                rng.normal(0.0, 2.0, size=(n, m)),
                np.round(rng.normal(size=(n, m)), 1),
                np.column_stack([np.full(n, 3.5), rng.normal(size=(n, m - 1))]),
                np.full((n, m), -1.25),  # every feature constant: absolute epsilon
            ):
                # Queries far out give posteriors clipped at both ends.
                queries = np.vstack([rng.normal(0.0, 3.0, size=(25, m)), np.full((2, m), 40.0),
                                     np.full((2, m), -40.0)])
                means, variances, scores = naive_gnb(features, labels, queries)
                model = GaussianNbClassifier().fit(features, labels)
                np.testing.assert_array_equal(model._means, means)
                np.testing.assert_array_equal(model._vars, variances)
                np.testing.assert_array_equal(model.score_samples(queries), scores)

    def test_labels_outside_zero_one_refused(self):
        with pytest.raises(ParameterError, match="0 or 1"):
            GaussianNbClassifier().fit(np.arange(6.0)[:, None], np.array([0, 2, 2, 1, 0, 2]))

    @pytest.mark.parametrize("n_labels", [8, 2])
    def test_label_count_must_match_rows(self, n_labels):
        with pytest.raises(ParameterError, match="5 feature rows but"):
            GaussianNbClassifier().fit(np.arange(5.0)[:, None], np.arange(n_labels) % 2)

    def test_factory(self):
        assert isinstance(make_classifier("knn", k=3), KnnClassifier)
        assert isinstance(make_classifier("gnb"), GaussianNbClassifier)
        with pytest.raises(ParameterError):
            make_classifier("svm")


class TestConfusion:
    def test_perfect_prediction(self):
        c = confusion([1, 0, 1], [1, 0, 1])
        assert (c.fp, c.fn) == (0, 0)

    def test_all_majority_prediction(self):
        c = confusion([1, 1, 0], [0, 0, 0])
        assert c.tp == 0 and recall_score(c) == 0.0

    def test_derived_formula_example(self):
        # TP=3, FP=1, FN=2, TN=4
        y_true = [1] * 5 + [0] * 5
        y_pred = [1, 1, 1, 0, 0, 1, 0, 0, 0, 0]
        c = confusion(y_true, y_pred)
        assert (c.tp, c.fp, c.fn, c.tn) == (3, 1, 2, 4)
        assert precision_score(c) == pytest.approx(0.75)
        assert recall_score(c) == pytest.approx(0.6)
        assert f_measure_score(c) == pytest.approx(0.6666666666666666, abs=1e-12)
        assert g_mean_score(c) == pytest.approx(math.sqrt(0.6 * 0.8), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ParameterError, match="mismatch"):
            confusion([1, 0], [1])

    def test_zero_division_conventions(self):
        c = confusion([0, 0], [0, 0])
        assert precision_score(c) == 0.0
        assert f_measure_score(c) == 0.0

    @pytest.mark.parametrize("y_true, y_pred", [([0, 2], [0, 1]), ([0, 1], [-1, 1])])
    def test_labels_outside_zero_one_refused(self, y_true, y_pred):
        with pytest.raises(ParameterError, match="0 or 1"):
            confusion(y_true, y_pred)


class TestMidranks:
    def test_matches_rankdata_average_on_tie_heavy_inputs(self):
        rng = np.random.default_rng(33)
        for n in range(1, 71):
            stack = np.array([
                rng.integers(0, 4, size=n).astype(np.float64),
                np.round(rng.normal(size=n), 1),
                rng.random(n),
                np.full(n, -0.0),
            ])
            for values in stack:
                np.testing.assert_array_equal(midranks(values), rankdata(values, method="average"))
            # A stack is ranked row by row.
            np.testing.assert_array_equal(
                midranks(stack), rankdata(stack, method="average", axis=-1)
            )

    def test_empty_input(self):
        assert midranks([]).shape == (0,)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused(self, bad):
        with pytest.raises(ParameterError, match="finite"):
            midranks([0.5, bad, 0.1])


class TestAuc:
    def test_perfect_separation(self):
        assert auc_score([1, 1, 0, 0], [0.9, 0.8, 0.2, 0.1]) == 1.0

    def test_all_ties(self):
        assert auc_score([1, 0, 1, 0], [0.5, 0.5, 0.5, 0.5]) == 0.5

    def test_exhaustive_pair_counting_example(self):
        # pos {0.9, 0.4}, neg {0.8, 0.2} -> 3 winning pairs of 4
        assert auc_score([1, 1, 0, 0], [0.9, 0.4, 0.8, 0.2]) == pytest.approx(0.75)

    def test_single_class_rejected(self):
        with pytest.raises(ParameterError, match="one class"):
            auc_score([1, 1], [0.5, 0.6])

    @pytest.mark.parametrize("y_true", [[0, 1, 2], [0, 1, -1]])
    def test_labels_outside_zero_one_refused(self, y_true):
        with pytest.raises(ParameterError, match="0 or 1"):
            auc_score(y_true, [0.1, 0.9, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_refused(self, bad):
        # A sort puts NaN last, which would read as a finite, wrong AUC.
        with pytest.raises(ParameterError, match="finite"):
            auc_score([1, 0, 1, 0], [0.9, bad, 0.4, 0.2])

    def test_matches_exhaustive_counting_on_random_scores(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            n = int(rng.integers(4, 30))
            y = rng.integers(0, 2, size=n)
            if y.min() == y.max():
                continue
            scores = np.round(rng.random(n), 2)  # rounding forces ties
            pairs = wins = 0.0
            for i in np.flatnonzero(y == 1):
                for j in np.flatnonzero(y == 0):
                    pairs += 1
                    if scores[i] > scores[j]:
                        wins += 1
                    elif scores[i] == scores[j]:
                        wins += 0.5
            assert auc_score(y, scores) == pytest.approx(wins / pairs, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 1000)),
            min_size=4,
            max_size=30,
        ).filter(lambda rows: len({c for c, _ in rows}) == 2)
    )
    def test_complement_and_monotone_invariance(self, rows):
        y = [c for c, _ in rows]
        s = np.array([v for _, v in rows]) / 1000.0
        if len(np.unique(s)) == len(s):  # complement identity needs tie-free scores
            assert auc_score(y, s) + auc_score(y, -s) == pytest.approx(1.0, abs=1e-12)
        transformed = 2.0 * s + 1.0  # strictly increasing, collision-free on this set
        assert auc_score(y, transformed) == pytest.approx(auc_score(y, s), abs=1e-12)


class TestMetricSet:
    def test_compute_metrics_bundle(self):
        y_true = [1, 1, 0, 0, 0]
        y_pred = [1, 0, 0, 0, 1]
        scores = [0.8, 0.4, 0.3, 0.2, 0.7]
        ms = compute_metrics(y_true, y_pred, scores)
        c = confusion(y_true, y_pred)
        assert ms.precision == precision_score(c)
        assert ms.recall == recall_score(c)
        assert ms.g_mean == g_mean_score(c)
        assert ms.auc == auc_score(y_true, scores)
        assert ms.balanced_accuracy == pytest.approx((ms.recall + 2 / 3) / 2)
        assert set(ms.as_dict()) == {
            "precision", "recall", "f_measure", "auc", "g_mean", "balanced_accuracy",
        }

    def test_stack_matches_naive_metrics_bit_for_bit(self):
        rng = np.random.default_rng(34)
        clipped = np.array([1e-300, 1.0 - 1e-16, 0.5, 0.25])
        for n in (2, 3, 24, 27, 30):
            y_true = rng.permutation(np.arange(n) % 3 == 0).astype(np.int64)
            rows = [
                rng.integers(0, 4, size=n) / 4.0,  # tie-heavy, exact 0.5 ties
                np.round(rng.random(n), 1),
                rng.choice(clipped, size=n),  # clipped GNB posteriors
                np.full(n, 1e-300),  # all equal, so tp = 0
                np.full(n, 1.0 - 1e-16),  # all equal, all predicted positive
                np.where(y_true == 1, 1e-300, 1.0 - 1e-16),  # every prediction wrong
                rng.random(n),
            ]
            scores = np.array(rows)
            preds = (scores > 0.5).astype(np.int64)
            got = compute_metrics(y_true, preds, scores)
            want = [naive_metrics(y_true, p, s) for p, s in zip(preds, scores)]
            for name in METRIC_NAMES:
                np.testing.assert_array_equal(
                    getattr(got, name), [w[name] for w in want], err_msg=name
                )
            # One row gives the same numbers as floats.  AUC stays a numpy
            # float64: reports round it with numpy's rule, not Python's.
            for p, s, w in zip(preds, scores, want):
                one = compute_metrics(y_true, p, s).as_dict()
                assert one == w
                assert {name: type(v) for name, v in one.items()} == {
                    **dict.fromkeys(METRIC_NAMES, float), "auc": np.float64
                }

    def test_g_mean_zero_when_one_class_recall_zero(self):
        ms = compute_metrics([1, 0, 0], [0, 0, 0], [0.4, 0.5, 0.6])
        assert ms.g_mean == 0.0 and ms.f_measure == 0.0


def test_import_leaves_scipy_stats_out():
    src = os.path.dirname(os.path.dirname(os.path.abspath(rbu.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, rbu, rbu.cli; print('scipy.stats' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
