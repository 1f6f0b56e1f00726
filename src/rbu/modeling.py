"""Built-in classifiers (k-NN and Gaussian naive Bayes) and the metric set.

Labels are integers with 1 for the positive (minority) class and 0 for the
negative (majority) class.  Both classifiers expose a positive-class score
in [0, 1], which ``predict_labels`` turns into labels.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import neighbors
from .errors import ParameterError
from .neighbors import _nearest_block, check_finite, for_each_block, integer_k, nearest_neighbors

VARIANCE_SMOOTHING = 1e-9


def _binary_labels(labels) -> np.ndarray:
    """``labels`` as int64, refusing any label outside {0, 1}."""
    labels = np.asarray(labels).astype(np.int64, copy=False)
    if np.count_nonzero(labels >> 1):
        raise ParameterError("labels must be 0 or 1")
    return labels


def _check_lengths(features: np.ndarray, labels: np.ndarray) -> None:
    if len(features) != len(labels):
        raise ParameterError(f"{len(features)} feature rows but {len(labels)} labels")


def _checked_set(features, labels):
    """A training set as float64 rows and int64 0/1 labels, refusing a label
    count that differs from the row count and NaN or infinite features."""
    features = np.asarray(features, dtype=np.float64)
    labels = _binary_labels(labels)
    _check_lengths(features, labels)
    check_finite(features)
    return features, labels


def _runs(widths) -> list:
    """Consecutive runs of the sets ``0 .. len(widths) - 1`` that are scored
    together: a run's padded arrays, ``len(run) * max(widths in the run)``
    entries, stay within ``neighbors._BLOCK``, or the run is one set."""
    runs, start, widest = [], 0, 0
    for i, width in enumerate(widths):
        widest = max(widest, width)
        if i > start and (i + 1 - start) * widest > neighbors._BLOCK:
            runs.append(range(start, i))
            start, widest = i, width
    if widths:
        runs.append(range(start, len(widths)))
    return runs


class KnnClassifier:
    """k-nearest-neighbors with the minority fraction as the score."""

    def __init__(self, k: int = 5):
        k = integer_k(k)
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        self.k = k
        self._set = None

    def training_set(self, features, labels):
        """``(features, labels)`` checked for :meth:`score_sets`; refuses an
        empty set, k above its row count and NaN or infinite features."""
        features = np.asarray(features, dtype=np.float64)
        if len(features) == 0:
            raise ParameterError("empty training set")
        if self.k > len(features):
            raise ParameterError(f"k={self.k} exceeds training size {len(features)}")
        return _checked_set(features, labels)

    def score_sets(self, sets, queries) -> np.ndarray:
        """Scores of ``queries`` (sets x queries) by each training set of the
        list ``sets`` from :meth:`training_set`, the same bit for bit as each
        set gets alone; each run of sets (:func:`_runs`) in one
        :func:`_knn_scores` call."""
        queries = np.asarray(queries, dtype=np.float64)
        scores = np.empty((len(sets), len(queries)))
        for run in _runs([len(queries) * len(points) for points, _ in sets]):
            _knn_scores(sets[run.start : run.stop], queries, self.k, scores[run.start : run.stop])
        return scores

    def fit(self, features: np.ndarray, labels: np.ndarray):
        self._set = self.training_set(features, labels)
        return self

    def score_samples(self, features: np.ndarray) -> np.ndarray:
        if self._set is None:
            raise ParameterError("classifier is not fitted")
        return self.score_sets([self._set], features)[0]


def _knn_scores(sets, queries, k, out) -> None:
    """Write the k-NN scores of ``queries`` by each of ``sets`` to the rows of ``out``.

    One ``for_each_block`` pass computes the distances to every set's points.
    ``cdist`` computes each pair on its own, so each set's columns, laid into
    an +inf-padded queries x sets x widest array, hold the distances the set
    has alone.  One ``_nearest_block`` call then picks every set's k nearest,
    ties to the lowest index, and the padding sorts after every point.  One
    set alone needs no padding: it is ``nearest_neighbors`` on that set.
    """
    if len(sets) == 1:
        points, labels = sets[0]
        out[0] = labels[nearest_neighbors(queries, points, k)].mean(axis=1)
        return
    sizes = np.array([len(points) for points, _ in sets])
    widest = int(sizes.max())
    # Column of the concatenated points holding each set's j-th point.
    columns = (np.cumsum(sizes) - sizes)[:, None] + np.arange(widest)
    padding = np.arange(widest) >= sizes[:, None]
    columns[padding] = 0
    votes = np.concatenate([labels for _, labels in sets])[columns]
    which = np.arange(len(sets))[:, None]
    check_finite(queries)  # the sets were checked by ``training_set``

    def body(start, dist):
        padded = np.take(dist, columns, axis=1)
        padded[:, padding] = np.inf
        nearest = _nearest_block(padded.reshape(-1, widest), k, None, 0)
        picked = votes[which, nearest.reshape(len(dist), len(sets), k)]
        out[:, start : start + len(dist)] = picked.mean(axis=2).T

    for_each_block(queries, np.concatenate([points for points, _ in sets]), body)


def _mean_var(rows, counts):
    """Means and variances of padded row groups, bit for bit as
    ``x.mean(axis=0)`` and ``x.var(axis=0)`` of each group's rows ``x`` alone.

    ``rows`` is (longest, sets, groups, m): each group's rows come first and
    -0.0 after them.  ``counts`` (sets x groups) gives each group's row count.
    """
    n = counts[..., None]
    mean = _column_sums(rows, counts) / n
    centred = rows - mean
    centred[np.arange(len(rows))[:, None, None] >= counts] = 0.0
    return mean, _column_sums(centred * centred, counts) / n


def _column_sums(rows, counts):
    """Each group's column sums, added in the order numpy adds a group alone.

    numpy adds the rows of a matrix of two or more columns one after the
    other, as it adds the rows of ``rows`` here, so the padding after a
    group's rows adds exact zeros (-0.0 leaves every sum as it is).  It sums
    a single column pairwise, grouped by the row count, so a single column
    is summed one group at a time.
    """
    if rows.shape[-1] > 1:
        return rows.sum(axis=0)
    sums = [rows[:count, s, g].sum(axis=0) for (s, g), count in np.ndenumerate(counts)]
    return np.array(sums).reshape(*counts.shape, 1)


class GaussianNbClassifier:
    """Gaussian naive Bayes with empirical priors and smoothed variances."""

    _fits = None

    def training_set(self, features, labels):
        """``(features, labels)`` checked for :meth:`score_sets`; refuses a set
        with one class only and NaN or infinite features."""
        features, labels = _checked_set(features, labels)
        if not 0 < np.count_nonzero(labels) < len(labels):
            raise ParameterError("training data must contain both classes")
        return features, labels

    def score_sets(self, sets, queries) -> np.ndarray:
        """Scores of ``queries`` (sets x queries) by each training set from
        :meth:`training_set`, the same bit for bit as each set gets alone.

        Each run of sets (:func:`_runs`) is fitted in one :func:`_gnb_fit` and
        scored in one :func:`_gnb_score`.
        """
        queries = np.asarray(queries, dtype=np.float64)
        m = queries.shape[1]
        scores = np.empty((len(sets), len(queries)))
        widths = [m * max(3 * len(points), 2 * len(queries)) for points, _ in sets]
        for run in _runs(widths):
            fits = _gnb_fit(sets[run.start : run.stop])
            scores[run.start : run.stop] = _gnb_score(fits, queries)
        return scores

    def fit(self, features: np.ndarray, labels: np.ndarray):
        self._fits = _gnb_fit([self.training_set(features, labels)])
        return self

    def score_samples(self, features: np.ndarray) -> np.ndarray:
        if self._fits is None:
            raise ParameterError("classifier is not fitted")
        return _gnb_score(self._fits, np.asarray(features, dtype=np.float64))[0]


def _gnb_fit(sets):
    """Gaussian naive Bayes fits of checked training sets, as arrays over the
    sets: priors (sets x 2), class means and smoothed variances (sets x 2 x
    m) and log offsets (sets x 2).

    Each set's rows, majority rows and minority rows, in their order, are
    three groups of one rows x sets x 3 x m array for :func:`_mean_var`.
    """
    points = np.concatenate([points for points, _ in sets])
    minority = np.concatenate([labels for _, labels in sets]) == 1
    sizes = np.array([len(points) for points, _ in sets])
    starts = np.cumsum(sizes) - sizes
    owner = np.repeat(np.arange(len(sets)), sizes)
    row = np.arange(len(points)) - starts[owner]
    # Minority rows before each row in its own set, and so its row in its class.
    before = np.cumsum(minority) - minority
    before -= before[starts][owner]
    n_minority = np.add.reduceat(minority, starts, dtype=np.intp)
    counts = np.column_stack([sizes, sizes - n_minority, n_minority])
    groups = np.full((sizes.max(), len(sets), 3, points.shape[1]), -0.0)
    groups[row, owner, 0] = points
    groups[np.where(minority, before, row - before), owner, 1 + minority] = points
    means, variances = _mean_var(groups, counts)
    # Floor relative to the widest feature; absolute fallback keeps the
    # posterior strictly inside (0, 1) even for all-constant features.
    epsilon = VARIANCE_SMOOTHING * variances[:, 0].max(axis=1)
    epsilon[epsilon == 0.0] = VARIANCE_SMOOTHING
    variances = variances[:, 1:] + epsilon[:, None, None]
    priors = counts[:, 1:] / counts[:, :1]
    # Log prior plus the log of each class's Gaussian normaliser.
    log_priors = np.array([[math.log(p) for p in pair] for pair in priors.tolist()])
    log_offset = log_priors + -0.5 * np.log(2.0 * np.pi * variances).sum(axis=2)
    return priors, means[:, 1:], variances, log_offset


def _gnb_score(fits, queries):
    """Positive-class scores (sets x queries) of the fits from :func:`_gnb_fit`,
    in blocks of query rows whose arrays stay within ``neighbors._BLOCK``."""
    _, means, variances, log_offset = fits
    scores = np.empty((len(means), len(queries)))
    rows = max(1, neighbors._BLOCK // means.size)
    for start in range(0, len(queries), rows):
        block = queries[start : start + rows]
        # Rows x sets x classes x features: every set and both classes in one broadcast.
        sq = ((block[:, None, None, :] - means) ** 2 / variances).sum(axis=3)
        jll = log_offset - 0.5 * sq
        # The maximum and the sum over the two classes, as one call each.
        shifted = jll - np.maximum(jll[..., :1], jll[..., 1:])
        probs = np.exp(shifted)
        posterior = probs[..., 1] / (probs[..., 0] + probs[..., 1])
        # The exact posterior is strictly inside (0, 1); keep it there even
        # when the likelihood ratio underflows double precision.
        scores[:, start : start + len(block)] = np.clip(posterior, 1e-300, 1.0 - 1e-16).T
    return scores


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
