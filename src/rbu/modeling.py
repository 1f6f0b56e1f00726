"""Built-in classifiers (k-NN and Gaussian naive Bayes) and the metric set.

Labels are integers with 1 for the positive (minority) class and 0 for the
negative (majority) class.  Both classifiers expose a positive-class score
in [0, 1], which ``predict_labels`` turns into labels.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import ParameterError
from .neighbors import nearest_neighbors

VARIANCE_SMOOTHING = 1e-9


def _binary_labels(labels) -> np.ndarray:
    """``labels`` as int64, refusing any label outside {0, 1}."""
    labels = np.asarray(labels).astype(np.int64)
    if (labels >> 1).any():
        raise ParameterError("labels must be 0 or 1")
    return labels


def _check_lengths(features: np.ndarray, labels: np.ndarray) -> None:
    if len(features) != len(labels):
        raise ParameterError(f"{len(features)} feature rows but {len(labels)} labels")


def _mean_var(x: np.ndarray):
    """Column means and variances of ``x`` by the same reductions, in the
    same order, as ``x.mean(axis=0)`` and ``x.var(axis=0)``."""
    n = len(x)
    mean = x.sum(axis=0) / n
    centred = x - mean
    return mean, (centred * centred).sum(axis=0) / n


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
        if len(features) == 0:
            raise ParameterError("empty training set")
        if self.k > len(features):
            raise ParameterError(f"k={self.k} exceeds training size {len(features)}")
        labels = _binary_labels(labels)
        _check_lengths(features, labels)
        self._train = features
        self._labels = labels
        return self

    def score_samples(self, features: np.ndarray) -> np.ndarray:
        if self._train is None:
            raise ParameterError("classifier is not fitted")
        neighbors = nearest_neighbors(features, self._train, self.k)
        return self._labels[neighbors].mean(axis=1)


class GaussianNbClassifier:
    """Gaussian naive Bayes with empirical priors and smoothed variances."""

    _fitted = False

    def fit(self, features: np.ndarray, labels: np.ndarray):
        features = np.asarray(features, dtype=np.float64)
        minority = _binary_labels(labels) == 1
        _check_lengths(features, minority)
        n, n_minority = len(minority), int(np.count_nonzero(minority))
        if not 0 < n_minority < n:
            raise ParameterError("training data must contain both classes")
        # Floor relative to the widest feature; absolute fallback keeps the
        # posterior strictly inside (0, 1) even for all-constant features.
        epsilon = VARIANCE_SMOOTHING * float(_mean_var(features)[1].max())
        if epsilon == 0.0:
            epsilon = VARIANCE_SMOOTHING
        mean0, var0 = _mean_var(features[~minority])
        mean1, var1 = _mean_var(features[minority])
        self._priors = np.array([(n - n_minority) / n, n_minority / n])
        self._means = np.array([mean0, mean1])
        self._vars = np.array([var0, var1]) + epsilon
        # Log prior plus the log of each class's Gaussian normaliser.
        log_priors = np.array([math.log(self._priors[0]), math.log(self._priors[1])])
        self._log_offset = log_priors + -0.5 * np.log(2.0 * np.pi * self._vars).sum(axis=1)
        self._fitted = True
        return self

    def score_samples(self, features: np.ndarray) -> np.ndarray:
        if not self._fitted:
            raise ParameterError("classifier is not fitted")
        features = np.asarray(features, dtype=np.float64)
        # Rows x classes x features: both classes in one broadcast.
        sq = ((features[:, None, :] - self._means) ** 2 / self._vars).sum(axis=2)
        jll = self._log_offset - 0.5 * sq
        shifted = jll - jll.max(axis=1, keepdims=True)
        probs = np.exp(shifted)
        posterior = probs[:, 1] / probs.sum(axis=1)
        # The exact posterior is strictly inside (0, 1); keep it there even
        # when the likelihood ratio underflows double precision.
        return np.clip(posterior, 1e-300, 1.0 - 1e-16)


def predict_labels(scores) -> np.ndarray:
    """Labels of positive-class scores: 1 above 0.5, else 0 (a tie goes to the majority)."""
    return (np.asarray(scores) > 0.5).astype(np.int64)


CLASSIFIERS = {"knn": KnnClassifier, "gnb": GaussianNbClassifier}


def make_classifier(name: str, **kwargs):
    if name not in CLASSIFIERS:
        raise ParameterError(f"unknown classifier {name!r}")
    return CLASSIFIERS[name](**kwargs)


# ---------------------------------------------------------------------------
# Metrics


@dataclass(frozen=True)
class ConfusionCounts:
    """Counts of one row, or arrays of counts over a stack of rows."""

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
        return asdict(self)


METRIC_NAMES = tuple(f.name for f in fields(MetricSet))


def _plain(value):
    """A 0-d result as a Python number; a stack of rows stays an array."""
    return value.item() if np.ndim(value) == 0 else value


def _ratio(num, den):
    """``num / den``, 0.0 where ``den`` is 0."""
    num = np.asarray(num, dtype=np.float64)
    den = np.asarray(den, dtype=np.float64)
    out = np.zeros(np.broadcast(num, den).shape)
    return _plain(np.divide(num, den, out=out, where=den > 0))


def confusion(y_true, y_pred) -> ConfusionCounts:
    """Counts along the last axis.  ``y_pred`` may be a stack of prediction
    rows sharing ``y_true``; the counts are then arrays over the rows."""
    y_true = _binary_labels(y_true)
    y_pred = _binary_labels(y_pred)
    n = y_true.shape[-1]
    if n != y_pred.shape[-1]:
        raise ParameterError(f"length mismatch: {n} vs {y_pred.shape[-1]}")
    if n == 0:
        raise ParameterError("empty label vectors")
    n_pos = y_true.sum(axis=-1)
    tp = (y_true & y_pred).sum(axis=-1)
    fp = y_pred.sum(axis=-1) - tp
    return ConfusionCounts(
        tp=_plain(tp), fp=_plain(fp), fn=_plain(n_pos - tp), tn=_plain(n - n_pos - fp)
    )


def precision_score(c: ConfusionCounts) -> float:
    return _ratio(c.tp, c.tp + c.fp)


def recall_score(c: ConfusionCounts) -> float:
    return _ratio(c.tp, c.tp + c.fn)


def specificity_score(c: ConfusionCounts) -> float:
    return _ratio(c.tn, c.tn + c.fp)


def f_measure_score(c: ConfusionCounts) -> float:
    p, r = precision_score(c), recall_score(c)
    return _ratio(2.0 * p * r, p + r)


def g_mean_score(c: ConfusionCounts) -> float:
    return _plain(np.sqrt(recall_score(c) * specificity_score(c)))


def midranks(values) -> np.ndarray:
    """1-based ranks of ``values`` along the last axis, each run of equal
    values sharing the average of its positions
    (``scipy.stats.rankdata(method="average")`` row by row).

    NaN and ±inf are refused: a sort would place NaN last and give it a rank.
    """
    values = np.asarray(values, dtype=np.float64)
    if not np.isfinite(values).all():
        raise ParameterError("ranks need finite values")
    order = np.argsort(values, axis=-1, kind="stable")
    ordered = np.take_along_axis(values, order, axis=-1)
    n = values.shape[-1]
    positions = np.arange(n)
    # In sorted order, a run of equal values starts where the value changes
    # and ends just before the next run starts.
    starts = np.empty(values.shape, dtype=bool)
    starts[..., :1] = True
    np.not_equal(ordered[..., 1:], ordered[..., :-1], out=starts[..., 1:])
    ends = np.empty_like(starts)
    ends[..., -1:] = True
    ends[..., :-1] = starts[..., 1:]
    first = np.maximum.accumulate(np.where(starts, positions, 0), axis=-1)
    last = np.minimum.accumulate(np.where(ends, positions, n)[..., ::-1], axis=-1)[..., ::-1]
    # Positions first+1 .. last+1 average to (first + last + 2) / 2, a
    # half-integer, so the ranks are exact.
    ranks = np.empty(values.shape)
    np.put_along_axis(ranks, order, (first + last + 2) / 2.0, axis=-1)
    return ranks


def auc_score(y_true, scores) -> float:
    """Mann-Whitney statistic: P(score_pos > score_neg) with ties counted 1/2.

    ``scores`` may be a stack of score rows sharing ``y_true``; the result is
    then an array over the rows.
    """
    y_true = _binary_labels(y_true)
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = int(y_true.sum())
    n_neg = len(y_true) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ParameterError("AUC is undefined when only one class is present")
    # Ranks are half-integers, so the rank sum is exact in any order.
    rank_sum = (midranks(scores) * y_true).sum(axis=-1)
    # One row gives a numpy float64, which reports round with numpy's rule.
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def compute_metrics(y_true, y_pred, scores) -> MetricSet:
    """The metric set of one row of predictions and scores, as floats, or of
    a (rows x samples) stack sharing ``y_true``, as arrays over the rows."""
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
