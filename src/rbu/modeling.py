"""Built-in classifiers (k-NN and Gaussian naive Bayes) and the metric set.

Labels are integers with 1 for the positive (minority) class and 0 for the
negative (majority) class.  Both classifiers expose a positive-class score
in [0, 1]; the prediction threshold is exactly 0.5 with ties going to the
majority class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .neighbors import nearest_neighbors

VARIANCE_SMOOTHING = 1e-9


class KnnClassifier:
    """k-nearest-neighbors with the minority fraction as the score."""

    def __init__(self, k: int = 5):
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        self.k = k
        self._train = None
        self._labels = None

    def fit(self, features: np.ndarray, labels: np.ndarray):
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels)
        if len(features) == 0:
            raise ParameterError("empty training set")
        if self.k > len(features):
            raise ParameterError(f"k={self.k} exceeds training size {len(features)}")
        self._train = features
        self._labels = labels.astype(np.int64)
        return self

    def score_samples(self, features: np.ndarray) -> np.ndarray:
        if self._train is None:
            raise ParameterError("classifier is not fitted")
        neighbors = nearest_neighbors(features, self._train, self.k)
        return self._labels[neighbors].mean(axis=1)

    def predict(self, features: np.ndarray) -> np.ndarray:
        return (self.score_samples(features) > 0.5).astype(np.int64)


class GaussianNbClassifier:
    """Gaussian naive Bayes with empirical priors and smoothed variances."""

    def __init__(self, var_smoothing: float = VARIANCE_SMOOTHING):
        self.var_smoothing = var_smoothing
        self._fitted = False

    def fit(self, features: np.ndarray, labels: np.ndarray):
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels).astype(np.int64)
        classes = np.unique(labels)
        if set(classes.tolist()) != {0, 1}:
            raise ParameterError("training data must contain both classes")
        # Floor relative to the widest feature; absolute fallback keeps the
        # posterior strictly inside (0, 1) even for all-constant features.
        pooled_var = features.var(axis=0)
        epsilon = self.var_smoothing * float(pooled_var.max())
        if epsilon == 0.0:
            epsilon = self.var_smoothing
        self._priors = np.array([(labels == c).mean() for c in (0, 1)])
        self._means = np.stack([features[labels == c].mean(axis=0) for c in (0, 1)])
        self._vars = (
            np.stack([features[labels == c].var(axis=0) for c in (0, 1)]) + epsilon
        )
        self._fitted = True
        return self

    def _joint_log_likelihood(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        jll = np.empty((len(features), 2))
        for c in (0, 1):
            log_norm = -0.5 * np.log(2.0 * np.pi * self._vars[c]).sum()
            sq = ((features - self._means[c]) ** 2 / self._vars[c]).sum(axis=1)
            jll[:, c] = math.log(self._priors[c]) + log_norm - 0.5 * sq
        return jll

    def score_samples(self, features: np.ndarray) -> np.ndarray:
        if not self._fitted:
            raise ParameterError("classifier is not fitted")
        jll = self._joint_log_likelihood(features)
        shifted = jll - jll.max(axis=1, keepdims=True)
        probs = np.exp(shifted)
        posterior = probs[:, 1] / probs.sum(axis=1)
        # The exact posterior is strictly inside (0, 1); keep it there even
        # when the likelihood ratio underflows double precision.
        return np.clip(posterior, 1e-300, 1.0 - 1e-16)

    def predict(self, features: np.ndarray) -> np.ndarray:
        return (self.score_samples(features) > 0.5).astype(np.int64)


def make_classifier(name: str, **kwargs):
    if name == "knn":
        return KnnClassifier(**kwargs)
    if name == "gnb":
        return GaussianNbClassifier(**kwargs)
    raise ParameterError(f"unknown classifier {name!r}")


# ---------------------------------------------------------------------------
# Metrics


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int


@dataclass(frozen=True)
class MetricSet:
    """Five headline metrics plus balanced accuracy (label-based AUC)."""

    precision: float
    recall: float
    f_measure: float
    auc: float
    g_mean: float
    balanced_accuracy: float

    def as_dict(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f_measure": self.f_measure,
            "auc": self.auc,
            "g_mean": self.g_mean,
            "balanced_accuracy": self.balanced_accuracy,
        }


METRIC_NAMES = ("precision", "recall", "f_measure", "auc", "g_mean", "balanced_accuracy")


def confusion(y_true, y_pred) -> ConfusionCounts:
    y_true = np.asarray(y_true).astype(np.int64)
    y_pred = np.asarray(y_pred).astype(np.int64)
    if len(y_true) != len(y_pred):
        raise ParameterError(f"length mismatch: {len(y_true)} vs {len(y_pred)}")
    if len(y_true) == 0:
        raise ParameterError("empty label vectors")
    if ((y_true | y_pred) >> 1).any():
        raise ParameterError("labels must be 0 or 1")
    tn, fp, fn, tp = np.bincount(2 * y_true + y_pred, minlength=4).tolist()
    return ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)


def precision_score(c: ConfusionCounts) -> float:
    return c.tp / (c.tp + c.fp) if c.tp + c.fp > 0 else 0.0


def recall_score(c: ConfusionCounts) -> float:
    return c.tp / (c.tp + c.fn) if c.tp + c.fn > 0 else 0.0


def specificity_score(c: ConfusionCounts) -> float:
    return c.tn / (c.tn + c.fp) if c.tn + c.fp > 0 else 0.0


def f_measure_score(c: ConfusionCounts) -> float:
    p, r = precision_score(c), recall_score(c)
    return 2.0 * p * r / (p + r) if p + r > 0 else 0.0


def g_mean_score(c: ConfusionCounts) -> float:
    return math.sqrt(recall_score(c) * specificity_score(c))


def midranks(values) -> np.ndarray:
    """1-based ranks of ``values``, each run of equal values sharing the
    average of its positions (``scipy.stats.rankdata(method="average")``).

    NaN and ±inf are refused: a sort would place NaN last and give it a rank.
    """
    values = np.asarray(values, dtype=np.float64)
    if not np.isfinite(values).all():
        raise ParameterError("ranks need finite values")
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    # Boundaries of the runs of equal values in sorted order.
    bounds = np.concatenate(
        ([0], np.flatnonzero(ordered[1:] != ordered[:-1]) + 1, [len(values)])
    )
    # Positions start+1 .. end average to (start + end + 1) / 2, a
    # half-integer, so the ranks are exact.
    run_ranks = (bounds[:-1] + bounds[1:] + 1) / 2.0
    ranks = np.empty(len(values))
    ranks[order] = np.repeat(run_ranks, np.diff(bounds))
    return ranks


def auc_score(y_true, scores) -> float:
    """Mann-Whitney statistic: P(score_pos > score_neg) with ties counted 1/2."""
    y_true = np.asarray(y_true).astype(np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = int((y_true == 1).sum())
    n_neg = int((y_true == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ParameterError("AUC is undefined when only one class is present")
    ranks = midranks(scores)
    rank_sum = ranks[y_true == 1].sum()
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def compute_metrics(y_true, y_pred, scores) -> MetricSet:
    c = confusion(y_true, y_pred)
    recall = recall_score(c)
    specificity = specificity_score(c)
    return MetricSet(
        precision=precision_score(c),
        recall=recall,
        f_measure=f_measure_score(c),
        auc=auc_score(y_true, scores),
        g_mean=g_mean_score(c),
        balanced_accuracy=(recall + specificity) / 2.0,
    )
