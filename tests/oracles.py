"""Independent reference implementations used as test oracles.

These deliberately recompute everything from scratch along a different code
path than the library (scalar math + fsum, or per-step full recomputation)
so that agreement is meaningful.
"""

import csv
import io
import math

import numpy as np
from hypothesis import strategies as st
from scipy.spatial.distance import cdist
from scipy.stats import rankdata

from rbu import BinaryTask, Dataset, FormatError, ParameterError, ResampleSpec, apply_resample
from rbu.baselines import METHODS, RENN_MAX_PASSES
from rbu.dataio import FeatureMeta
from rbu.evaluation import SELECTION_METRICS, binary_task_from_labels, make_folds
from rbu.grids import named_specs
from rbu.modeling import METRIC_NAMES, VARIANCE_SMOOTHING
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


def naive_renn_kept(majority, minority, k):
    """RENN that recomputes every pass in full.

    Each pass sorts the whole distance matrix of the remaining majority
    points to all remaining points (stable argsort, own column masked) and
    removes the majority points most of whose first k columns are minority
    points.  It stops when a pass removes nothing, when fewer than k other
    points are left, or after ``RENN_MAX_PASSES`` passes.

    Returns (kept majority indices, number of passes that removed a point).
    """
    majority = np.asarray(majority, dtype=np.float64)
    minority = np.asarray(minority, dtype=np.float64)
    kept = np.arange(len(majority))
    removing = 0
    for _ in range(RENN_MAX_PASSES):
        if len(kept) + len(minority) - 1 < k:
            break
        dist = cdist(majority[kept], np.vstack([majority[kept], minority]))
        dist[np.arange(len(kept)), np.arange(len(kept))] = np.nan  # sorts last
        nearest = np.argsort(dist, axis=1, kind="stable")[:, :k]
        flipped = 2 * (nearest >= len(kept)).sum(axis=1) > k
        if not flipped.any():
            break
        kept = kept[~flipped]
        removing += 1
    return kept.tolist(), removing


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


def naive_knn_scores(features, labels, queries, k):
    """k-NN positive-class scores from the full ``cdist`` matrix: each query's
    first k points in a stable argsort of its distance row (ties to the
    lowest index), averaged as 0/1 labels.  Refuses, with ValueError, an empty
    set, k above its row count and NaN or infinite coordinates.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels).astype(np.int64)
    queries = np.asarray(queries, dtype=np.float64)
    if not 1 <= k <= len(features):
        raise ValueError(f"k={k} needs 1 to {len(features)} training rows")
    if not (np.isfinite(features).all() and np.isfinite(queries).all()):
        raise ValueError("coordinates must be finite")
    order = np.argsort(cdist(queries, features), axis=1, kind="stable")[:, :k]
    return labels[order].sum(axis=1) / k


def naive_select_params(features, labels, grid, classifier, seed, inner_repeats=3, plan_seed=None):
    """Inner selection grid point by grid point, each fold rebuilding its task
    and every resampler run from scratch, scored by ``naive_metrics`` from
    ``naive_gnb`` or ``naive_knn_scores`` (k = 5, the k-NN default).

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
        for fold_idx, (train_idx, test_idx) in enumerate(plan):
            try:
                task = binary_task_from_labels(features[train_idx], labels[train_idx])
                resampled = apply_resample(
                    task, spec, seed=derive_seed(seed, grid_idx, fold_idx)
                )
                fit_x, fit_y = naive_stack(resampled)
                test_x = features[test_idx]
                if classifier == "gnb":
                    scores = naive_gnb(fit_x, fit_y, test_x)[2]
                else:
                    scores = naive_knn_scores(fit_x, fit_y, test_x, k=5)
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


def naive_report_ranks(report):
    """A sweep report's rank and Friedman rows, recomputed one (classifier,
    metric, dataset) at a time from its runs with ``scipy.stats.rankdata``.

    Fold means are ``np.mean`` over a cell's folds in run order.  A dataset
    with a failed fold in any method's cell is left out for that classifier,
    best mean ranks 1, and the Friedman chi-square comes from rank sums.
    Returns (ranks rows, friedman rows) in the report's row format.
    """
    folds = {}
    for row in report.runs:
        key = (row["dataset"], row["classifier"], row["method"])
        folds.setdefault(key, []).append(row["metrics"])
    methods = list(report.methods)
    ranks, friedman = [], []
    if len(methods) < 2:
        return ranks, friedman
    for classifier in report.classifiers:
        for metric in METRIC_NAMES:
            per_dataset = {}
            for dataset in sorted(report.datasets):
                cells = [folds.get((dataset, classifier, m), [None]) for m in methods]
                if any(metrics is None for cell in cells for metrics in cell):
                    continue
                means = [float(np.mean([metrics[metric] for metrics in cell])) for cell in cells]
                ranked = rankdata([-v for v in means], method="average")
                per_dataset[dataset] = {m: float(r) for m, r in zip(methods, ranked)}
            if not per_dataset:
                continue
            used = sorted(per_dataset)
            average = {m: float(np.mean([per_dataset[d][m] for d in used])) for m in methods}
            ranks.append(
                {
                    "classifier": classifier,
                    "metric": metric,
                    "average": average,
                    "per_dataset": per_dataset,
                    "datasets": used,
                }
            )
            if len(used) >= 2:
                n, k = len(used), len(methods)
                rank_sums = [math.fsum(per_dataset[d][m] for d in used) for m in methods]
                squares = math.fsum(r * r for r in rank_sums)
                chi2 = 12.0 / (n * k * (k + 1)) * squares - 3.0 * n * (k + 1)
                friedman.append(
                    {
                        "classifier": classifier,
                        "metric": metric,
                        "chi_square": chi2,
                        "df": k - 1,
                        "datasets": n,
                    }
                )
    return ranks, friedman


def naive_stack(task):
    """A task's training matrix and 0/1 labels, stacked from its two classes:
    majority rows first, labelled 0, then minority rows, labelled 1."""
    features = np.vstack([task.majority, task.minority])
    labels = np.array([0] * len(task.majority) + [1] * len(task.minority), dtype=np.int64)
    return features, labels


# The method table's names, with "pipeline" standing for ROS then SMOTE (copied
# and synthetic rows in one result), and the stl and senn pipelines.
RESAMPLE_NAMES = sorted(METHODS) + ["stl", "senn"]


@st.composite
def rows_with_minority(draw, cells):
    """Lists of 6 to 24 rows ``(*cells, minority)`` of which 2 to half are
    minority rows: the minority count is drawn first, then its positions."""
    n = draw(st.integers(6, 24))
    n_minority = draw(st.integers(2, n // 2))
    minority = set(draw(st.permutations(range(n)))[:n_minority])
    rows = draw(st.lists(cells, min_size=n, max_size=n))
    return [(*row, i in minority) for i, row in enumerate(rows)]


def resample_spec(name, ratio, k):
    """A spec of one of ``RESAMPLE_NAMES`` with the given ratio and k, where
    it takes them; RBU runs with gamma 1."""
    if name in ("stl", "senn"):
        (spec,) = named_specs(name, {"k": [k], "ratio": [ratio]}, k)
        return spec
    if name == "pipeline":
        return ResampleSpec("pipeline", stages=(
            ResampleSpec("ros", {"ratio": ratio}), ResampleSpec("smote", {"k": k, "ratio": 1.0}),
        ))
    given_params = {"ratio": ratio, "k": k, "gamma": 1.0}
    return ResampleSpec(name, {p: v for p, v in given_params.items() if p in METHODS[name].params})


def naive_rebuild(raw, encoded, scaler, task, result):
    """``cli.rebuild_dataset``'s rows, one at a time, as (cells, label) pairs.

    Every dataset row the result uses at least once comes first, in file
    order; then one more copy of a minority row for each further use of it,
    in minority order; then each synthetic point (dataset row -1), in result
    order, mapped back through the standardizer cell by cell, a categorical
    cell snapped to the nearest code (halves to even) within the declared
    codes.
    """
    uses, synthetic = {}, []
    for point, source in zip(result.points, result.source_rows):
        if source >= 0:
            uses[int(source)] = uses.get(int(source), 0) + 1
        else:
            synthetic.append(point)
    order = [i for i in range(raw.n) if uses.get(i, 0) > 0]
    for source in task.source_rows[task.n_majority :]:
        order += [int(source)] * (uses.get(int(source), 0) - 1)
    expected = [(list(raw.features[i]), raw.labels[i]) for i in order]
    for point in synthetic:
        cells = []
        for j, meta in enumerate(encoded.feature_meta):
            value = float(point[j]) * float(scaler.std[j]) + float(scaler.mean[j])
            if meta.kind == "categorical":
                names = list(meta.categories)
                value = names[min(max(round(value), 0), len(names) - 1)]
            cells.append(value)
        expected.append((cells, task.minority_label))
    return expected


def numbered(task):
    """``task`` whose dataset rows are its own row numbers, so that a
    resampled task's ``source_rows`` index ``task.points``."""
    return BinaryTask(task.majority, task.minority, task.minority_label, task.majority_label,
                      source_rows=np.arange(len(task.points)))


def with_synthetic(task, synthetic):
    """``task`` followed by the minority points ``synthetic``, which come
    from no dataset row (-1), as an oversampler's result is."""
    return BinaryTask(task.majority, np.vstack([task.minority, synthetic]), task.minority_label,
                      task.majority_label,
                      source_rows=np.concatenate([task.source_rows, np.full(len(synthetic), -1)]))


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


# ---------------------------------------------------------------------------
# Dataset I/O: one cell at a time

_MISSING = {"?", "<null>", ""}


def naive_read_rows(rows, metas, label_pos) -> Dataset:
    """Dataset of ``(line number, raw tokens)`` data rows, checked one row
    and one cell at a time: the first bad line raises, naming its arity or
    else its first bad cell in column order."""
    features, labels = [], []
    for line_no, raw_tokens in rows:
        tokens = [t.strip() for t in raw_tokens]
        if len(tokens) != len(metas):
            raise FormatError(f"row has {len(tokens)} values, expected {len(metas)}", line=line_no)
        cells = []
        for pos, (token, meta) in enumerate(zip(tokens, metas)):
            if meta.allowed is not None and token not in meta.allowed:
                raise FormatError(
                    f"unknown categorical value {token!r} for attribute {meta.name!r}",
                    line=line_no,
                )
            if pos == label_pos:
                labels.append(token)
            elif meta.kind == "numeric":
                if token in _MISSING:
                    raise FormatError(f"missing value {token!r} is not supported", line=line_no)
                try:
                    value = float(token)
                except ValueError:
                    raise FormatError(f"expected a number, got {token!r}", line=line_no) from None
                if not math.isfinite(value):
                    raise FormatError(f"non-finite value {token!r}", line=line_no)
                cells.append(value)
            elif meta.allowed is None and token in _MISSING:
                raise FormatError(f"missing value {token!r} is not supported", line=line_no)
            else:
                cells.append(token)
        features.append(cells)
    if not features:
        raise FormatError("no data rows")
    feature_meta = tuple(metas[:label_pos] + metas[label_pos + 1:])
    numeric = all(m.kind == "numeric" for m in feature_meta)
    return Dataset(
        features=np.array(features, dtype=np.float64 if numeric else object).reshape(
            len(features), len(feature_meta)
        ),
        labels=np.array(labels, dtype=object),
        feature_meta=feature_meta,
        label_name=metas[label_pos].name,
    )


def naive_keel_rows(text):
    """``(line number, raw tokens)`` of a KEEL text's data lines."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip().lower().startswith("@data")) + 1
    return [
        (no, line.strip().split(","))
        for no, line in enumerate(lines[start:], start=start + 1)
        if line.strip() and not line.strip().startswith("%")
    ]


def naive_parse_csv(text, label_column=-1) -> Dataset:
    """``parse_csv`` with a per-cell numeric test and :func:`naive_read_rows`."""
    reader = csv.reader(io.StringIO(text))
    header = [h.strip() for h in next(reader)]
    rows = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise FormatError(f"row has {len(row)} values, expected {len(header)}", line=line_no)
        rows.append((line_no, row))
    if not rows:
        raise FormatError("no data rows")
    label_pos = label_column % len(header) if isinstance(label_column, int) else header.index(label_column)

    def is_number(token):
        try:
            float(token)
        except ValueError:
            return False
        return token not in _MISSING

    metas = [
        FeatureMeta(
            name,
            "numeric"
            if pos != label_pos and all(is_number(row[pos].strip()) for _, row in rows)
            else "categorical",
        )
        for pos, name in enumerate(header)
    ]
    return naive_read_rows(rows, metas, label_pos)


def _naive_cell(value) -> str:
    return value if isinstance(value, str) else "%.17g" % float(value)


def naive_serialize_csv(d: Dataset) -> str:
    """CSV text written one row and one cell at a time."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([m.name for m in d.feature_meta] + [d.label_name])
    for i in range(d.n):
        writer.writerow([_naive_cell(v) for v in d.features[i]] + [str(d.labels[i])])
    return out.getvalue()


def naive_serialize_keel(d: Dataset, relation="dataset") -> str:
    """KEEL text written one row and one cell at a time; a row holding a
    comma refuses the dataset, naming its first such cell.  Column names are
    taken to be valid."""
    columns = [m.name for m in d.feature_meta] + [d.label_name]
    lines = [f"@relation {relation}"]
    for j, meta in enumerate(d.feature_meta):
        if meta.kind == "categorical" and not d.is_encoded:
            values = ", ".join(meta.allowed or dict.fromkeys(d.features[:, j]))
            lines.append(f"@attribute {meta.name} {{{values}}}")
        elif meta.range is not None:
            lo, hi = meta.range
            lines.append(f"@attribute {meta.name} real [{_naive_cell(lo)}, {_naive_cell(hi)}]")
        else:
            lines.append(f"@attribute {meta.name} real")
    lines.append(f"@attribute {d.label_name} {{{', '.join(dict.fromkeys(str(v) for v in d.labels))}}}")
    lines.append(f"@inputs {', '.join(m.name for m in d.feature_meta)}")
    lines.append(f"@outputs {d.label_name}")
    lines.append("@data")
    for i in range(d.n):
        cells = [_naive_cell(v) for v in d.features[i]] + [str(d.labels[i])]
        for column, value in zip(columns, cells):
            if "," in value:
                raise ParameterError(f"KEEL cannot hold {value!r} of column {column!r}: it has a comma")
        lines.append(", ".join(cells))
    return "\n".join(lines) + "\n"
