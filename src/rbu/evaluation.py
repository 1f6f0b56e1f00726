"""Benchmark harness: stratified repeated 50/50 cross-validation, inner
model selection by the combined F/AUC/G-mean criterion, experiment sweeps,
rank aggregation and the Friedman statistic.

Every random decision derives its stream from the master seed and the cell
identity (dataset, method, classifier, fold), so reports are identical no
matter how work is scheduled, including across worker processes.  A unit of
work is one (dataset, outer fold), whose cells share their inner selection.
"""

from __future__ import annotations

import itertools
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from operator import itemgetter

import numpy as np

from .baselines import METHODS, ResampleSpec, apply_resample, plan_grid
from .dataio import BinaryTask, encode_categoricals, fit_standardizer, split_binary
from .errors import LeakageError, ParameterError
from .minority import dataset_stats
# Unused here, but perfbench/tracing.py patches this name; --trace 1 fails without it.
from .minority import categorize_minority  # noqa: F401
from .modeling import METRIC_NAMES, compute_metrics, make_classifier, midranks, predict_labels
from .neighbors import integer_k, single_thread_blocks
from .seeding import derive_seed

SCHEMA_VERSION = 1
SELECTION_METRICS = ("f_measure", "auc", "g_mean")
STANDARDIZE_MODES = ("per-fold", "global")
# Repetitions of the inner 50/50 split that selects each cell's parameters.
INNER_REPEATS = 3
# The fields of a run that name its cell; a cell's runs differ in "fold" only.
CELL_FIELDS = ("dataset", "classifier", "method")


def make_folds(labels, repeats: int, seed) -> tuple:
    """Seeded stratified half-and-half splits, as ``(train, test)`` index
    pairs.  Each repeat contributes two folds, (half A trains, half B tests)
    and the swap, so folds ``2r`` and ``2r + 1`` belong to repeat ``r``.
    ``repeats`` follows ``integer_k``'s rule."""
    repeats = integer_k(repeats, "repeats")
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
    return tuple(folds)


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
    model = make_classifier(classifier).fit(train_features, train_labels)
    scores = model.score_samples(test_features)
    return predict_labels(scores), scores


def select_params(features, labels, cells, plan_seed) -> list:
    """For each cell ``(grid, classifier, seed)``, the grid point maximizing
    the inner-CV mean of (F + AUC + G-mean)/3, or the exception that failed
    the cell.

    A one-point grid is chosen without being scored, and an empty grid fails
    its cell.  The other cells share the inner plan drawn from ``plan_seed``
    and are scored together by ``inner_scores``.  A grid point whose
    resampling or training set is refused with ``ParameterError`` on an
    inner fold scores 0 for that fold; any other exception fails its cell
    alone, and one outside every cell's own runs (building the plan, say)
    fails every cell that is scored.  Ties keep the earliest grid point in
    declared order.
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
    order, a SMOTE neighbour table, ENN's kept indices), which every
    resampler may reuse.  Grid point i of a cell on fold j draws from
    ``derive_seed(seed, i, j)``.  Each fold plans the resampling of every
    cell's grid points (``plan_grid``), so that the grid points of one
    method, both classifiers' cells included, are resampled in one
    ``run_grid`` call.  A cell's training sets that its classifier accepts
    are then scored in one ``score_sets`` call.  The fold's predictions and
    scores, one row per grid point of every cell, go through one
    ``compute_metrics`` call.  A grid point whose resampling or training set
    is refused, or whose scores are not finite, scores 0 on that fold, and
    so does every grid point of a cell whose batch is refused; a cell whose
    run or batch raises anything else fails and is not run on later folds,
    and so does every cell with a grid point in a ``run_grid`` call that
    raises.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    plan = make_folds(labels, INNER_REPEATS, plan_seed)

    results = [np.zeros((len(grid), len(plan))) for grid, _, _ in cells]
    for fold_idx, (train_idx, test_idx) in enumerate(plan):
        task = binary_task_from_labels(features[train_idx], labels[train_idx])
        test_x, test_y = features[test_idx], labels[test_idx]
        shared = {}
        seeds = _plan_cells(cells, results, fold_idx, shared)
        # (cell, that cell's scored grid points) in row order of the stacks.
        scored, score_rows = [], []
        for cell_idx, (grid, classifier, _) in enumerate(cells):
            if isinstance(results[cell_idx], Exception):
                continue
            try:
                model = make_classifier(classifier)
                points, sets = [], []
                for grid_idx, spec in enumerate(grid):
                    try:
                        resampled = apply_resample(
                            task, spec, seed=seeds[cell_idx][grid_idx], shared=shared
                        )
                        sets.append(model.training_set(resampled.points, resampled.labels01))
                    except ParameterError:
                        continue
                    points.append(grid_idx)
                if not points:
                    continue
                test_scores = model.score_sets(sets, test_x)
            except ParameterError:  # the classifier or the test rows: all score 0 here
                continue
            except Exception as exc:
                results[cell_idx] = exc
                continue
            # Ranking refuses non-finite scores; refuse them for their row only.
            finite = np.isfinite(test_scores).all(axis=1)
            if finite.any():
                scored.append((cell_idx, [p for p, ok in zip(points, finite) if ok]))
                score_rows.append(test_scores[finite])
        if not scored:
            continue
        score_rows = np.concatenate(score_rows)
        try:
            metrics = compute_metrics(test_y, predict_labels(score_rows), score_rows)
        except ParameterError:  # the fold's own labels: every grid point scores 0
            continue
        combined = sum(getattr(metrics, m) for m in SELECTION_METRICS) / len(SELECTION_METRICS)
        start = 0
        for cell_idx, points in scored:
            results[cell_idx][points, fold_idx] = combined[start : start + len(points)]
            start += len(points)
    return results


def _plan_cells(cells, results, fold_idx, shared) -> dict:
    """``cell -> its grid points' seeds`` on the fold, for every cell not
    failed in ``results``, with their resampling planned in ``shared``."""
    seeds = {}
    for cell_idx, (grid, _, seed) in enumerate(cells):
        if not isinstance(results[cell_idx], Exception):
            # A method that draws nothing needs no seed.
            seeds[cell_idx] = [
                derive_seed(seed, grid_idx, fold_idx) if METHODS[spec.method].seeded else None
                for grid_idx, spec in enumerate(grid)
            ]
    plan_grid(
        [spec for cell_idx in seeds for spec in cells[cell_idx][0]],
        [seed for cell_seeds in seeds.values() for seed in cell_seeds],
        shared,
    )
    return seeds


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
                preds, scores = _fit_and_score(
                    classifier, resampled.points, resampled.labels01, test_x
                )
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

    def to_json_dict(self) -> dict:
        def round6(value):
            if isinstance(value, dict):
                return {k: round6(v) for k, v in value.items()}
            if isinstance(value, list):
                return [round6(v) for v in value]
            if isinstance(value, float):
                return round(value, 6)
            return value

        return {"schema": SCHEMA_VERSION, **round6(asdict(self))}

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
        labels01[task.source_rows] = task.labels01
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
        for fold_idx, fold in enumerate(plan)
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
    report.runs.sort(key=itemgetter(*CELL_FIELDS, "fold"))

    _summarize(report)
    return report


def _summarize(report: EvalReport) -> None:
    """Fill the report's aggregates, ranks and Friedman rows from its runs,
    which are sorted by (dataset, classifier, method, fold).

    A cell's aggregate holds its fold means, or None if any fold failed.  A
    dataset is ranked for a classifier only when every method's cell has
    means; those datasets are ranked in one ``midranks`` call per classifier
    (best mean = 1, ties averaged), every metric at once.
    """
    means = {}
    for cell, group in itertools.groupby(report.runs, key=itemgetter(*CELL_FIELDS)):
        rows = list(group)
        failed = sum(row["metrics"] is None for row in rows)
        means[cell] = None if failed else {
            m: float(np.mean([row["metrics"][m] for row in rows])) for m in METRIC_NAMES
        }
        report.aggregates.append(
            dict(zip(CELL_FIELDS, cell), folds=len(rows), failed_folds=failed, metrics=means[cell])
        )
    if len(report.methods) < 2:
        return
    for classifier in report.classifiers:
        used = [
            dataset
            for dataset in sorted(report.datasets)
            if all(means.get((dataset, classifier, m)) is not None for m in report.methods)
        ]
        if not used:
            continue
        # metrics x datasets x methods, negated so the best mean ranks 1.
        ranks = midranks(
            [
                [[-means[d, classifier, m][metric] for m in report.methods] for d in used]
                for metric in METRIC_NAMES
            ]
        )
        for metric, table in zip(METRIC_NAMES, ranks):
            report.ranks.append(
                {
                    "classifier": classifier,
                    "metric": metric,
                    "average": dict(zip(report.methods, table.mean(axis=0).tolist())),
                    "per_dataset": {
                        d: dict(zip(report.methods, row.tolist())) for d, row in zip(used, table)
                    },
                    "datasets": used,
                }
            )
            if len(used) >= 2:
                chi2, df = friedman_statistic(table)
                report.friedman.append(
                    {
                        "classifier": classifier,
                        "metric": metric,
                        "chi_square": chi2,
                        "df": df,
                        "datasets": len(used),
                    }
                )


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
