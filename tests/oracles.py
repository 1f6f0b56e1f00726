"""Independent reference implementations used as test oracles.

These deliberately recompute everything from scratch along a different code
path than the library (scalar math + fsum, or per-step full recomputation)
so that agreement is meaningful.
"""

import math

import numpy as np
from scipy.stats import rankdata

from rbu import BinaryTask, Dataset, apply_resample
from rbu.dataio import FeatureMeta
from rbu.evaluation import (
    SELECTION_METRICS,
    _stack_task,
    binary_task_from_labels,
    make_folds,
)
from rbu.modeling import VARIANCE_SMOOTHING, make_classifier
from rbu.seeding import derive_seed


def naive_potential(x, majority, minority, gamma):
    """Scalar-summation potential: RBF sums over both classes via fsum."""

    def rbf(p):
        distance = math.dist(tuple(p), tuple(x))
        return math.exp(-((distance / gamma) ** 2))

    return math.fsum(rbf(p) for p in majority) - math.fsum(rbf(p) for p in minority)


def naive_rbu_trace(majority, minority, gamma, ratio):
    """Greedy undersampling that recomputes every potential from scratch
    after each removal (lowest-index tie rule).

    Returns (removal sequence of original indices, list of per-step potential
    vectors aligned with the surviving points before that step's removal).
    """
    majority = np.asarray(majority, dtype=np.float64)
    minority = np.asarray(minority, dtype=np.float64)
    alive = list(range(len(majority)))
    n_remove = math.ceil(ratio * (len(majority) - len(minority)))
    removed = []
    step_potentials = []
    inv_g2 = 1.0 / (gamma * gamma)
    for _ in range(n_remove):
        current = majority[alive]
        d2_maj = ((current[:, None, :] - current[None, :, :]) ** 2).sum(-1)
        phi = np.exp(-d2_maj * inv_g2).sum(axis=1)
        if len(minority):
            d2_min = ((current[:, None, :] - minority[None, :, :]) ** 2).sum(-1)
            phi = phi - np.exp(-d2_min * inv_g2).sum(axis=1)
        step_potentials.append((list(alive), phi.copy()))
        best = int(np.argmax(phi))  # first max == lowest original index
        removed.append(alive.pop(best))
    return removed, step_potentials


def naive_tomek_kept(majority, minority):
    """Majority indices outside every cross-class mutual-nearest pair.

    Each point's nearest other point comes from a scalar scan over all
    points, distance ties going to the lowest index.
    """
    points = [tuple(p) for p in majority] + [tuple(p) for p in minority]
    n_majority = len(majority)
    nearest = [
        min((j for j in range(len(points)) if j != i), key=lambda j: math.dist(p, points[j]))
        for i, p in enumerate(points)
    ]
    return [
        i
        for i in range(n_majority)
        if nearest[i] < n_majority or nearest[nearest[i]] != i
    ]


def argsort_smote_synthetic(majority, minority, k, ratio, seed):
    """SMOTE synthetics with neighbours from a stable argsort of broadcast
    distances; draws follow the library's order (seeds, picks, gaps)."""
    minority = np.asarray(minority, dtype=np.float64)
    n_minority = len(minority)
    k_eff = min(k, n_minority - 1)
    n_new = math.ceil(ratio * (len(majority) - n_minority))
    dist = np.sqrt(((minority[:, None, :] - minority[None, :, :]) ** 2).sum(-1))
    np.fill_diagonal(dist, np.inf)
    neighbors = np.argsort(dist, axis=1, kind="stable")[:, :k_eff]
    rng = np.random.default_rng(seed)
    seeds = rng.integers(0, n_minority, size=n_new)
    picks = rng.integers(0, k_eff, size=n_new)
    gaps = rng.random(n_new)
    base = minority[seeds]
    return base + gaps[:, None] * (minority[neighbors[seeds, picks]] - base)


def naive_pipeline(task, stages, seed):
    """A pipeline run one stage at a time: stage i resamples the previous
    stage's output task, seeded with ``derive_seed(seed, i)``."""
    for i, stage in enumerate(stages):
        task = apply_resample(task, stage, seed=derive_seed(seed, i))
    return task


def rankdata_auc(y_true, scores):
    """Mann-Whitney AUC from ``scipy.stats.rankdata`` average ranks."""
    y_true = np.asarray(y_true)
    n_pos = int((y_true == 1).sum())
    n_neg = int((y_true == 0).sum())
    rank_sum = rankdata(scores, method="average")[y_true == 1].sum()
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def naive_metrics(y_true, y_pred, scores):
    """The metric set of one row as a dict, from scalar Python formulas on
    counted pairs and a ``rankdata`` AUC."""
    pairs = [(int(t), int(p)) for t, p in zip(y_true, y_pred)]
    tp = sum(1 for t, p in pairs if t == 1 and p == 1)
    fp = sum(1 for t, p in pairs if t == 0 and p == 1)
    fn = sum(1 for t, p in pairs if t == 1 and p == 0)
    tn = sum(1 for t, p in pairs if t == 0 and p == 0)
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    specificity = tn / (tn + fp) if tn + fp > 0 else 0.0
    f_measure = (
        2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    )
    return {
        "precision": precision,
        "recall": recall,
        "f_measure": f_measure,
        "auc": rankdata_auc(y_true, scores),
        "g_mean": math.sqrt(recall * specificity),
        "balanced_accuracy": (recall + specificity) / 2.0,
    }


def naive_gnb(features, labels, queries, var_smoothing=VARIANCE_SMOOTHING):
    """Gaussian naive Bayes fitted class by class with ``np.unique`` and
    boolean masks, and scored one class at a time.

    Returns (class means, smoothed variances, positive-class scores).
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels).astype(np.int64)
    queries = np.asarray(queries, dtype=np.float64)
    classes = np.unique(labels)
    if classes.tolist() != [0, 1]:
        raise ValueError("training data must contain both classes")
    epsilon = var_smoothing * float(features.var(axis=0).max())
    if epsilon == 0.0:
        epsilon = var_smoothing
    priors = [(labels == c).mean() for c in classes]
    means = np.stack([features[labels == c].mean(axis=0) for c in classes])
    variances = np.stack([features[labels == c].var(axis=0) for c in classes]) + epsilon
    jll = np.empty((len(queries), 2))
    for c in (0, 1):
        log_norm = -0.5 * np.log(2.0 * np.pi * variances[c]).sum()
        sq = ((queries - means[c]) ** 2 / variances[c]).sum(axis=1)
        jll[:, c] = math.log(priors[c]) + log_norm - 0.5 * sq
    probs = np.exp(jll - jll.max(axis=1, keepdims=True))
    posterior = probs[:, 1] / probs.sum(axis=1)
    return means, variances, np.clip(posterior, 1e-300, 1.0 - 1e-16)


def naive_select_params(features, labels, grid, classifier, seed, inner_repeats=3, plan_seed=None):
    """Inner selection grid point by grid point, each fold rebuilding its task
    and every resampler run from scratch, scored by ``naive_metrics`` (and
    ``naive_gnb`` for the gnb classifier).

    Returns (chosen spec, per-grid-point mean scores).
    """
    grid = list(grid)
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if plan_seed is None:
        plan_seed = derive_seed(seed, "inner-plan")
    plan = make_folds(labels, inner_repeats, plan_seed)

    best_spec, best_score, means = None, -np.inf, []
    for grid_idx, spec in enumerate(grid):
        fold_scores = []
        for fold_idx, (train_idx, test_idx) in enumerate(plan.folds):
            try:
                task = binary_task_from_labels(features[train_idx], labels[train_idx])
                resampled = apply_resample(
                    task, spec, seed=derive_seed(seed, grid_idx, fold_idx)
                )
                fit_x, fit_y = _stack_task(resampled)
                test_x = features[test_idx]
                if classifier == "gnb":
                    scores = naive_gnb(fit_x, fit_y, test_x)[2]
                else:
                    scores = make_classifier(classifier).fit(fit_x, fit_y).score_samples(test_x)
                metrics = naive_metrics(labels[test_idx], scores > 0.5, scores)
                combined = 0.0
                for name in SELECTION_METRICS:
                    combined += metrics[name]
                combined /= len(SELECTION_METRICS)
            except Exception:
                combined = 0.0
            fold_scores.append(combined)
        score = float(np.mean(fold_scores))
        means.append(score)
        if score > best_score:
            best_spec, best_score = spec, score
    return best_spec, means


def make_task(majority, minority):
    majority = np.asarray(majority, dtype=np.float64)
    minority = np.asarray(minority, dtype=np.float64)
    if minority.size == 0:
        minority = np.empty((0, majority.shape[1]))
    return BinaryTask(majority=majority, minority=minority)


def random_task(rng, n_majority, n_minority, m, spread=3.0):
    majority = rng.normal(0.0, spread, size=(n_majority, m))
    minority = rng.normal(1.0, spread, size=(n_minority, m))
    return make_task(majority, minority)


def random_task_for_gamma(rng, n_majority, n_minority, m, gamma):
    """Random instance whose coordinate scale tracks gamma.

    Pairwise distances land near gamma (never far beyond ~4 gamma), so every
    RBF contributes measurably to every potential and potentials stay well
    separated.  Without this, small-gamma instances degenerate into exact
    analytic ties at phi = 1 (all contributions vanish below one ulp), where
    any two faithful implementations may legitimately pick different argmax
    winners.
    """
    spread = gamma * rng.uniform(0.4, 1.2) / np.sqrt(m)
    majority = rng.normal(0.0, spread, size=(n_majority, m))
    minority = rng.normal(0.3 * spread, spread, size=(n_minority, m))
    return make_task(majority, minority)


def dataset_from_arrays(features, labels01) -> Dataset:
    features = np.asarray(features, dtype=np.float64)
    meta = tuple(FeatureMeta(f"f{j}", "numeric") for j in range(features.shape[1]))
    labels = np.array(["pos" if v else "neg" for v in labels01], dtype=object)
    return Dataset(features=features, labels=labels, feature_meta=meta)


def overlapping_imbalanced_dataset(rng, n_minority, imbalance_ratio, m) -> Dataset:
    """Two-class blobs with a majority pocket overlapping the minority region."""
    n_majority = int(round(imbalance_ratio * n_minority))
    n_pocket = n_majority // 4
    center = np.full(m, 1.6)
    majority = np.vstack(
        [
            rng.normal(0.0, 1.0, size=(n_majority - n_pocket, m)),
            rng.normal(center, 0.8, size=(n_pocket, m)),
        ]
    )
    minority = rng.normal(center, 0.7, size=(n_minority, m))
    features = np.vstack([majority, minority])
    labels01 = np.array([0] * n_majority + [1] * n_minority)
    perm = rng.permutation(len(labels01))
    return dataset_from_arrays(features[perm], labels01[perm])
