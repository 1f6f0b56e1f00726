"""Benchmark harness: stratified repeated 50/50 cross-validation, inner
model selection by the combined F/AUC/G-mean criterion, experiment sweeps,
rank aggregation and the Friedman statistic.

Every random decision derives its stream from the master seed and the cell
identity (dataset, method, classifier, fold), so reports are identical no
matter how work is scheduled, including across worker processes.  A unit of
work is one (dataset, outer fold), whose cells share their inner selection.
"""

from __future__ import annotations

import json
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .baselines import ResampleSpec, apply_resample
from .dataio import BinaryTask, encode_categoricals, fit_standardizer, split_binary
from .errors import LeakageError, ParameterError
from .minority import dataset_stats
# Unused here, but perfbench/tracing.py patches this name; --trace 1 fails without it.
from .minority import categorize_minority  # noqa: F401
from .modeling import METRIC_NAMES, compute_metrics, make_classifier, midranks
from .neighbors import single_thread_blocks
from .seeding import derive_seed

SCHEMA_VERSION = 1
SELECTION_METRICS = ("f_measure", "auc", "g_mean")
STANDARDIZE_MODES = ("per-fold", "global")
# Repetitions of the inner 50/50 split that selects each cell's parameters.
INNER_REPEATS = 3


@dataclass(frozen=True)
class FoldPlan:
    """Index lists for repeated stratified 50/50 splits.

    Each repeat contributes two folds: (half A trains, half B tests) and the
    swap.  ``folds[2r]`` and ``folds[2r + 1]`` belong to repeat ``r``.
    """

    repeats: int
    seed: int
    folds: tuple

    def __len__(self):
        return len(self.folds)


def make_folds(labels, repeats: int, seed) -> FoldPlan:
    """Seeded stratified half-and-half splits, both halves serving as train once."""
    if repeats < 1:
        raise ParameterError(f"repeats must be at least 1, got {repeats}")
    labels = np.asarray(labels)
    classes, counts = np.unique(labels, return_counts=True)
    smallest = counts.min()
    if smallest < 2 * repeats:
        raise ParameterError(
            f"smallest class has {smallest} members, need at least {2 * repeats}"
        )
    rng = np.random.default_rng(seed)
    folds = []
    for _ in range(repeats):
        half_a, half_b = [], []
        for cls in classes:
            members = np.flatnonzero(labels == cls)
            perm = rng.permutation(members)
            n_a = len(members) // 2
            if len(members) % 2 == 1:
                n_a += int(rng.integers(0, 2))
            half_a.append(perm[:n_a])
            half_b.append(perm[n_a:])
        a = np.sort(np.concatenate(half_a))
        b = np.sort(np.concatenate(half_b))
        folds.append((a, b))
        folds.append((b, a))
    return FoldPlan(repeats=repeats, seed=seed, folds=tuple(folds))


def check_no_leakage(train_idx, test_idx) -> None:
    """Raise if any test index appears on the training side."""
    overlap = np.intersect1d(train_idx, test_idx)
    if len(overlap) > 0:
        raise LeakageError(f"test indices leaked into training: {overlap[:5]}")


def binary_task_from_labels(features: np.ndarray, labels01: np.ndarray) -> BinaryTask:
    labels01 = np.asarray(labels01)
    return BinaryTask(
        majority=features[labels01 == 0],
        minority=features[labels01 == 1],
        minority_label="1",
        majority_label="0",
    )


def _fit_and_score(classifier, train_features, train_labels, test_features):
    model = make_classifier(classifier)
    model.fit(train_features, train_labels)
    scores = model.score_samples(test_features)
    preds = (scores > 0.5).astype(np.int64)
    return preds, scores


def _stack_task(task: BinaryTask):
    features = np.vstack([task.majority, task.minority])
    labels = np.concatenate(
        [np.zeros(task.n_majority, dtype=np.int64), np.ones(task.n_minority, dtype=np.int64)]
    )
    return features, labels


def select_params(features, labels, cells, plan_seed) -> list:
    """For each cell ``(grid, classifier, seed)``, the grid point maximizing
    the inner-CV mean of (F + AUC + G-mean)/3, or the exception that failed
    the cell.

    A one-point grid is chosen without being scored, and an empty grid fails
    its cell.  The other cells share the inner plan drawn from ``plan_seed``
    and are scored together by ``inner_scores``.  A grid point whose
    resampling or fit is refused with ``ParameterError`` on an inner fold
    scores 0 for that fold; any other exception fails its cell alone, and
    one outside every cell's own runs (building the plan, say) fails every
    cell that is scored.  Ties keep the earliest grid point in declared
    order.
    """
    cells = [(list(grid), classifier, seed) for grid, classifier, seed in cells]
    chosen = [grid[0] if grid else ParameterError("empty parameter grid") for grid, _, _ in cells]
    scored = [i for i, (grid, _, _) in enumerate(cells) if len(grid) > 1]
    if not scored:
        return chosen
    try:
        scores = inner_scores(features, labels, [cells[i] for i in scored], plan_seed)
    except Exception as exc:
        scores = [exc] * len(scored)
    for i, cell_scores in zip(scored, scores):
        if isinstance(cell_scores, Exception):
            chosen[i] = cell_scores
            continue
        best_score = -np.inf
        for spec, fold_scores in zip(cells[i][0], cell_scores):
            score = float(np.mean(fold_scores))
            if score > best_score:
                chosen[i], best_score = spec, score
    return chosen


def inner_scores(features, labels, cells, plan_seed) -> list:
    """For each cell ``(grid, classifier, seed)``, its grid x inner-fold array
    of combined scores, or the exception that failed it: ``select_params``'
    inputs.

    Folds run one at a time.  Each fold builds its task once and keeps a
    ``shared`` dict of results that depend on that task alone (an RBU removal
    order, a SMOTE neighbour table, ENN's kept indices), which every cell's
    resampler may reuse.  Grid point i of a cell on fold j draws from
    ``derive_seed(seed, i, j)``.  The fold's predictions and scores, one row
    per grid point of every cell, go through one ``compute_metrics`` call.
    A grid point whose resampling or fit is refused, or whose scores are not
    finite, scores 0 on that fold; a cell whose run raises anything else
    fails and is not run on later folds.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    plan = make_folds(labels, INNER_REPEATS, plan_seed)

    results = [np.zeros((len(grid), len(plan))) for grid, _, _ in cells]
    for fold_idx, (train_idx, test_idx) in enumerate(plan.folds):
        task = binary_task_from_labels(features[train_idx], labels[train_idx])
        test_x, test_y = features[test_idx], labels[test_idx]
        shared = {}
        # (cell, that cell's scored grid points) in row order of the stacks.
        scored, pred_rows, score_rows = [], [], []
        for cell_idx, (grid, classifier, seed) in enumerate(cells):
            if isinstance(results[cell_idx], Exception):
                continue
            points, preds_of, scores_of = [], [], []
            try:
                for grid_idx, spec in enumerate(grid):
                    try:
                        resampled = apply_resample(
                            task, spec, seed=derive_seed(seed, grid_idx, fold_idx), shared=shared
                        )
                        fit_x, fit_y = _stack_task(resampled)
                        preds, test_scores = _fit_and_score(classifier, fit_x, fit_y, test_x)
                    except ParameterError:
                        continue
                    # Ranking refuses non-finite scores; refuse them for this row only.
                    if np.isfinite(test_scores).all():
                        points.append(grid_idx)
                        preds_of.append(preds)
                        scores_of.append(test_scores)
            except Exception as exc:
                results[cell_idx] = exc
                continue
            if points:
                scored.append((cell_idx, points))
                pred_rows += preds_of
                score_rows += scores_of
        if not scored:
            continue
        try:
            metrics = compute_metrics(test_y, np.array(pred_rows), np.array(score_rows))
        except ParameterError:  # the fold's own labels: every grid point scores 0
            continue
        combined = sum(getattr(metrics, m) for m in SELECTION_METRICS) / len(SELECTION_METRICS)
        start = 0
        for cell_idx, points in scored:
            results[cell_idx][points, fold_idx] = combined[start : start + len(points)]
            start += len(points)
    return results


# ---------------------------------------------------------------------------
# Experiment sweep


def _evaluate_unit(payload):
    """Evaluate every (classifier, method) cell on one (dataset, outer fold).

    The unit standardizes the fold once and selects every cell's parameters
    in one ``select_params`` call, so the cells share the inner plan, each
    inner fold's work and its metrics call.  Each cell's outer fit then
    draws from ``derive_seed(unit_seed, "final")``, where ``unit_seed`` is
    ``derive_seed(master_seed, dataset, classifier, method, fold)``.
    """
    (
        dataset_name,
        features,
        labels01,
        fold_idx,
        (train_idx, test_idx),
        cells,
        master_seed,
        standardize,
    ) = payload

    check_no_leakage(train_idx, test_idx)
    rows = [
        {"dataset": dataset_name, "classifier": classifier, "method": method, "fold": fold_idx}
        for classifier, method, _ in cells
    ]
    seeds = [
        derive_seed(master_seed, dataset_name, classifier, method, fold_idx)
        for classifier, method, _ in cells
    ]
    try:
        train_x_raw, train_y = features[train_idx], labels01[train_idx]
        test_x_raw, test_y = features[test_idx], labels01[test_idx]
        if standardize == "per-fold":
            scaler = fit_standardizer(train_x_raw)
            train_x = scaler.transform(train_x_raw)
            test_x = scaler.transform(test_x_raw)
        else:  # "global": matrix was standardized up front
            train_x, test_x = train_x_raw, test_x_raw
        chosen = select_params(
            train_x,
            train_y,
            [(grid, classifier, seed) for (classifier, _, grid), seed in zip(cells, seeds)],
            derive_seed(master_seed, dataset_name, "inner", fold_idx),
        )
        task = binary_task_from_labels(train_x, train_y)
    except Exception as exc:  # recorded for every cell, not fatal to the sweep
        chosen = [exc] * len(cells)

    for row, (classifier, _, _), seed, best in zip(rows, cells, seeds, chosen):
        error = best if isinstance(best, Exception) else None
        if error is None:
            try:
                resampled = apply_resample(task, best, seed=derive_seed(seed, "final"))
                fit_x, fit_y = _stack_task(resampled)
                preds, scores = _fit_and_score(classifier, fit_x, fit_y, test_x)
                row["metrics"] = compute_metrics(test_y, preds, scores).as_dict()
                row["spec"] = best.label
                continue
            except Exception as exc:  # recorded, not fatal to the sweep
                error = exc
        row["spec"] = None
        row["metrics"] = None
        row["error"] = f"{type(error).__name__}: {error}"
    # The fold's one leakage check covers each of its rows.
    return rows, len(rows)


@dataclass
class EvalReport:
    """Per-fold rows, fold-mean aggregates, average ranks and Friedman stats."""

    seed: int
    repeats: int
    datasets: list
    methods: list
    classifiers: list
    runs: list = field(default_factory=list)
    aggregates: list = field(default_factory=list)
    ranks: list = field(default_factory=list)
    friedman: list = field(default_factory=list)
    dataset_stats: list = field(default_factory=list)
    leakage_checks: int = 0

    def aggregate_metrics(self, dataset, method, classifier):
        for row in self.aggregates:
            if (
                row["dataset"] == dataset
                and row["method"] == method
                and row["classifier"] == classifier
            ):
                return row["metrics"]
        return None

    def to_json_dict(self) -> dict:
        def round6(value):
            if isinstance(value, dict):
                return {k: round6(v) for k, v in value.items()}
            if isinstance(value, list):
                return [round6(v) for v in value]
            if isinstance(value, float):
                return round(value, 6)
            return value

        return {
            "schema": SCHEMA_VERSION,
            "seed": self.seed,
            "repeats": self.repeats,
            "datasets": list(self.datasets),
            "methods": list(self.methods),
            "classifiers": list(self.classifiers),
            "runs": round6(self.runs),
            "aggregates": round6(self.aggregates),
            "ranks": round6(self.ranks),
            "friedman": round6(self.friedman),
            "dataset_stats": round6(self.dataset_stats),
            "leakage_checks": self.leakage_checks,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        lines = ["dataset,classifier,method,fold,spec," + ",".join(METRIC_NAMES)]
        for row in self.runs:
            metrics = row.get("metrics")
            values = (
                ["%.6f" % metrics[m] for m in METRIC_NAMES]
                if metrics
                else [""] * len(METRIC_NAMES)
            )
            spec = row.get("spec") or row.get("error", "")
            lines.append(
                ",".join(
                    [
                        row["dataset"],
                        row["classifier"],
                        row["method"],
                        str(row["fold"]),
                        '"%s"' % spec,
                    ]
                    + values
                )
            )
        return "\n".join(lines) + "\n"


def _worker_pool(jobs: int) -> ProcessPoolExecutor:
    """Process pool of ``jobs`` workers whose distance blocks run on one
    thread, so jobs processes never start jobs x CPUs threads."""
    return ProcessPoolExecutor(max_workers=jobs, initializer=single_thread_blocks)


def run_experiment(
    datasets,
    methods,
    classifiers,
    seed,
    repeats: int = 5,
    jobs: int = 1,
    standardize: str = "per-fold",
    minority_labels=None,
    with_dataset_stats: bool = False,
) -> EvalReport:
    """Sweep methods x classifiers x folds over the given datasets.

    ``datasets`` maps name -> Dataset (two-class); ``methods`` maps method
    name -> parameter grid (list of ResampleSpec, declared order).  Cells
    that fail are recorded as failed runs; the sweep continues.
    """
    if standardize not in STANDARDIZE_MODES:
        raise ParameterError(f"unknown standardize mode {standardize!r}")
    if not datasets:
        raise ParameterError("no datasets given")
    if not methods:
        raise ParameterError("no methods given")
    minority_labels = minority_labels or {}

    prepared = []
    stats_rows = []
    for name, ds in datasets.items():
        encoded = encode_categoricals(ds)
        minority_label = minority_labels.get(name, "auto")
        task = split_binary(encoded, minority_label)
        labels01 = np.zeros(encoded.n, dtype=np.int64)
        labels01[task.minority_indices] = 1
        features = encoded.features
        if standardize == "global":
            features = fit_standardizer(features).transform(features)
        plan = make_folds(labels01, repeats, derive_seed(seed, name, "folds"))
        prepared.append((name, features, labels01, plan))
        if with_dataset_stats:
            stats = dataset_stats(encoded, minority_label=minority_label)
            stats_rows.append({"dataset": name, **asdict(stats)})

    cells = [
        (classifier, method_name, list(grid))
        for classifier in classifiers
        for method_name, grid in methods.items()
    ]
    units = [
        (name, features, labels01, fold_idx, fold, cells, seed, standardize)
        for (name, features, labels01, plan) in prepared
        for fold_idx, fold in enumerate(plan.folds)
    ]

    if jobs > 1:
        with _worker_pool(jobs) as pool:
            results = list(pool.map(_evaluate_unit, units))
    else:
        results = [_evaluate_unit(unit) for unit in units]

    report = EvalReport(
        seed=seed,
        repeats=repeats,
        datasets=[name for name, *_ in prepared],
        methods=list(methods.keys()),
        classifiers=list(classifiers),
        dataset_stats=stats_rows,
    )
    for rows, checks in results:
        report.runs.extend(rows)
        report.leakage_checks += checks
    report.runs.sort(key=lambda r: (r["dataset"], r["classifier"], r["method"], r["fold"]))

    _aggregate(report)
    _rank_and_test(report)
    return report


def _aggregate(report: EvalReport) -> None:
    groups = {}
    for row in report.runs:
        key = (row["dataset"], row["classifier"], row["method"])
        groups.setdefault(key, []).append(row)
    for (dataset, classifier, method), rows in sorted(groups.items()):
        failed = [r for r in rows if r.get("metrics") is None]
        entry = {
            "dataset": dataset,
            "classifier": classifier,
            "method": method,
            "folds": len(rows),
            "failed_folds": len(failed),
        }
        if failed:
            entry["metrics"] = None
        else:
            entry["metrics"] = {
                m: float(np.mean([r["metrics"][m] for r in rows])) for m in METRIC_NAMES
            }
        report.aggregates.append(entry)


def rank_methods(means_by_dataset, methods):
    """Average ranks (best = 1, ties averaged) over datasets with complete cells.

    Returns (average ranks per method, per-dataset ranks, ranked datasets).
    """
    methods = list(methods)
    if len(methods) < 2:
        raise ParameterError("ranking needs at least 2 methods")
    per_dataset = {}
    for dataset, means in means_by_dataset.items():
        values = [means.get(m) for m in methods]
        if any(v is None for v in values):
            warnings.warn(
                f"dataset {dataset!r} has missing cells and is excluded from ranking"
            )
            continue
        ranks = midranks([-v for v in values])
        per_dataset[dataset] = {m: float(r) for m, r in zip(methods, ranks)}
    if not per_dataset:
        raise ParameterError("no dataset has complete cells for ranking")
    average = {
        m: float(np.mean([per_dataset[d][m] for d in per_dataset])) for m in methods
    }
    return average, per_dataset, sorted(per_dataset)


def means_by_dataset(report: EvalReport, metric: str, classifier: str) -> dict:
    """Fold-mean ``metric`` per dataset and method for one classifier; None
    for a cell with failed folds."""
    means = {}
    for row in report.aggregates:
        if row["classifier"] != classifier:
            continue
        metrics = row["metrics"]
        means.setdefault(row["dataset"], {})[row["method"]] = (
            None if metrics is None else metrics[metric]
        )
    return means


def average_ranks(report: EvalReport, metric: str, classifier: str):
    """Per-method mean rank for one metric/classifier pair of a finished report."""
    if metric not in METRIC_NAMES:
        raise ParameterError(f"unknown metric {metric!r}")
    average, _, _ = rank_methods(means_by_dataset(report, metric, classifier), report.methods)
    return average


def friedman_statistic(ranks) -> tuple[float, int]:
    """Friedman chi-square over a datasets x methods rank matrix (no tie
    correction); degrees of freedom is methods - 1."""
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.ndim != 2:
        raise ParameterError("rank matrix must be 2-D (datasets x methods)")
    n, k = ranks.shape
    if n < 2 or k < 2:
        raise ParameterError(f"need at least 2 datasets and 2 methods, got {n}x{k}")
    mean_ranks = ranks.mean(axis=0)
    chi2 = 12.0 * n / (k * (k + 1)) * (float((mean_ranks**2).sum()) - k * (k + 1) ** 2 / 4.0)
    return chi2, k - 1


def _rank_and_test(report: EvalReport) -> None:
    if len(report.methods) < 2:
        return
    for classifier in report.classifiers:
        for metric in METRIC_NAMES:
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    average, per_dataset, used = rank_methods(
                        means_by_dataset(report, metric, classifier), report.methods
                    )
            except ParameterError:
                continue
            report.ranks.append(
                {
                    "classifier": classifier,
                    "metric": metric,
                    "average": average,
                    "per_dataset": per_dataset,
                    "datasets": used,
                }
            )
            if len(used) >= 2:
                matrix = [[per_dataset[d][m] for m in report.methods] for d in used]
                chi2, df = friedman_statistic(matrix)
                report.friedman.append(
                    {
                        "classifier": classifier,
                        "metric": metric,
                        "chi_square": chi2,
                        "df": df,
                        "datasets": len(used),
                    }
                )
