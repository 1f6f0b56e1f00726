import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbu import (
    LeakageError,
    ParameterError,
    ResampleSpec,
    average_ranks,
    dataset_stats,
    friedman_statistic,
    make_folds,
    parse_csv,
    run_experiment,
    select_params,
)
from rbu import baselines, evaluation, neighbors, radial
from rbu.evaluation import (
    _stack_task,
    binary_task_from_labels,
    check_no_leakage,
    inner_scores,
    rank_methods,
)
from rbu.grids import preset_grids
from rbu.modeling import compute_metrics, make_classifier
from rbu.potential import TIE_LOWEST_INDEX, TIE_SEEDED_RANDOM
from rbu.radial import RbuParams, rbu_kept_indices
from rbu.seeding import derive_seed
from rbu.baselines import apply_resample, apply_resample_detail, senn_spec, stl_spec

from oracles import make_task, naive_pipeline, naive_select_params, random_task


def _blocks_on_one_thread(_):
    """In a pool worker: whether its distance blocks run on one thread."""
    return neighbors._single_thread


def imbalanced_dataset(rng, n_majority, n_minority, m=2, gap=2.5):
    features = np.vstack(
        [
            rng.normal(0.0, 1.0, size=(n_majority, m)),
            rng.normal(gap, 1.0, size=(n_minority, m)),
        ]
    )
    labels = np.array([0] * n_majority + [1] * n_minority)
    perm = rng.permutation(len(labels))
    return features[perm], labels[perm]


def select_one(features, labels, grid, classifier, seed, plan_seed=None):
    """``select_params`` on one cell, raising the exception that failed it;
    the plan seed defaults to ``derive_seed(seed, "inner-plan")``."""
    if plan_seed is None:
        plan_seed = derive_seed(seed, "inner-plan")
    (best,) = select_params(features, labels, [(grid, classifier, seed)], plan_seed)
    if isinstance(best, Exception):
        raise best
    return best


def inner_one(features, labels, grid, classifier, seed):
    """``inner_scores`` on one cell, as ``select_one`` calls it."""
    (scores,) = inner_scores(
        features, labels, [(grid, classifier, seed)], derive_seed(seed, "inner-plan")
    )
    if isinstance(scores, Exception):
        raise scores
    return scores


def as_dataset(features, labels):
    header = ",".join(f"f{i}" for i in range(features.shape[1])) + ",class"
    rows = [
        ",".join("%.17g" % v for v in features[i]) + ("," + ("pos" if labels[i] else "neg"))
        for i in range(len(labels))
    ]
    return parse_csv(header + "\n" + "\n".join(rows) + "\n")


class TestMakeFolds:
    def test_exact_stratification_on_even_classes(self):
        labels = np.array([0] * 24 + [1] * 12)
        plan = make_folds(labels, repeats=5, seed=3)
        assert len(plan) == 10
        for train, test in plan.folds:
            assert labels[train].sum() == 6 and labels[test].sum() == 6
            assert len(train) == len(test) == 18

    def test_halves_partition_and_swap(self):
        labels = np.array([0] * 10 + [1] * 10)
        plan = make_folds(labels, repeats=2, seed=0)
        for r in range(2):
            a_train, a_test = plan.folds[2 * r]
            b_train, b_test = plan.folds[2 * r + 1]
            np.testing.assert_array_equal(a_train, b_test)
            np.testing.assert_array_equal(a_test, b_train)
            assert sorted(list(a_train) + list(a_test)) == list(range(20))

    def test_same_seed_same_plan(self):
        labels = np.array([0] * 15 + [1] * 11)
        one = make_folds(labels, 5, seed=42)
        two = make_folds(labels, 5, seed=42)
        for (t1, e1), (t2, e2) in zip(one.folds, two.folds):
            np.testing.assert_array_equal(t1, t2)
            np.testing.assert_array_equal(e1, e2)

    def test_repeats_one_on_four_points(self):
        plan = make_folds(np.array([0, 0, 1, 1]), repeats=1, seed=1)
        assert len(plan) == 2
        for train, test in plan.folds:
            assert len(train) == len(test) == 2

    def test_odd_class_counts_within_one(self):
        labels = np.array([0] * 13 + [1] * 7)
        plan = make_folds(labels, repeats=3, seed=5)
        for train, test in plan.folds:
            assert abs(int(labels[train].sum()) - int(labels[test].sum())) <= 1

    def test_class_too_small(self):
        labels = np.array([0] * 20 + [1] * 9)
        with pytest.raises(ParameterError, match="smallest class"):
            make_folds(labels, repeats=5, seed=0)

    @pytest.mark.parametrize("repeats", [0, -1])
    def test_repeats_below_one_refused(self, repeats):
        with pytest.raises(ParameterError, match="repeats"):
            make_folds(np.array([0] * 10 + [1] * 10), repeats=repeats, seed=0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(10, 40), st.integers(10, 40), st.integers(0, 10_000))
    def test_partition_property(self, n0, n1, seed):
        labels = np.array([0] * n0 + [1] * n1)
        plan = make_folds(labels, repeats=5, seed=seed)
        for train, test in plan.folds:
            assert len(np.intersect1d(train, test)) == 0
            assert len(train) + len(test) == n0 + n1


class TestLeakageCheck:
    def test_disjoint_passes(self):
        check_no_leakage(np.array([0, 1, 2]), np.array([3, 4]))

    def test_overlap_raises(self):
        with pytest.raises(LeakageError):
            check_no_leakage(np.array([0, 1, 2]), np.array([2, 3]))


class TestSelectParams:
    def test_singleton_grid_shortcut(self):
        spec = ResampleSpec("none")
        assert select_one(np.zeros((4, 1)), np.array([0, 0, 1, 1]), [spec], "knn", 0) is spec

    def test_empty_grid(self):
        with pytest.raises(ParameterError, match="empty"):
            select_one(np.zeros((4, 1)), np.array([0, 0, 1, 1]), [], "knn", 0)

    def test_broken_spec_loses_to_valid_spec(self):
        rng = np.random.default_rng(50)
        features, labels = imbalanced_dataset(rng, 30, 10)
        # smote with k<1 fails on every inner fold and scores 0
        broken = ResampleSpec("smote", {"k": 0, "ratio": 1.0})
        fine = ResampleSpec("none")
        best = select_one(features, labels, [broken, fine], "knn", seed=1)
        assert best is fine

    def test_matches_manual_inner_loop_trace(self):
        rng = np.random.default_rng(51)
        features, labels = imbalanced_dataset(rng, 24, 8)
        grid = [
            ResampleSpec("rus", {"ratio": 0.5}),
            ResampleSpec("rus", {"ratio": 1.0}),
        ]
        seed, plan_seed = 9, 99
        best = select_one(features, labels, grid, "gnb", seed=seed, plan_seed=plan_seed)

        # oracle: replay the protocol step by step with public primitives
        plan = make_folds(labels, 3, plan_seed)
        scores = []
        for grid_idx, spec in enumerate(grid):
            per_fold = []
            for fold_idx, (train, test) in enumerate(plan.folds):
                task = binary_task_from_labels(features[train], labels[train])
                resampled = apply_resample(task, spec, seed=derive_seed(seed, grid_idx, fold_idx))
                fit_x, fit_y = _stack_task(resampled)
                model = make_classifier("gnb").fit(fit_x, fit_y)
                s = model.score_samples(features[test])
                ms = compute_metrics(labels[test], (s > 0.5).astype(int), s)
                per_fold.append((ms.f_measure + ms.auc + ms.g_mean) / 3)
            scores.append(np.mean(per_fold))
        expected = grid[int(np.argmax(scores))]
        assert best is expected
        assert scores[0] != scores[1]  # the trace actually discriminates

    def test_unexpected_error_propagates(self, monkeypatch):
        # Only ParameterError scores a fold 0; a resampler bug must surface.
        def broken(task, ratio, seed):
            raise IndexError("broken resampler")

        monkeypatch.setattr(baselines, "rus_kept_indices", broken)
        rng = np.random.default_rng(53)
        features, labels = imbalanced_dataset(rng, 24, 8)
        grid = [ResampleSpec("rus", {"ratio": 1.0}), ResampleSpec("none")]
        with pytest.raises(IndexError, match="broken resampler"):
            select_one(features, labels, grid, "knn", seed=1)

    def test_tie_prefers_first_declared(self):
        rng = np.random.default_rng(52)
        features, labels = imbalanced_dataset(rng, 20, 8)
        first = ResampleSpec("none")
        same = ResampleSpec("rus", {"ratio": 0.0})  # identical behavior to none
        best = select_one(features, labels, [first, same], "knn", seed=3)
        assert best is first


class TestFoldMajorSelection:
    """Fold-major selection with per-fold shared work against the grid-major
    loop that reruns everything."""

    @pytest.mark.parametrize("classifier", ["knn", "gnb"])
    @pytest.mark.parametrize("data_seed", [0, 1, 2])
    def test_matches_grid_major_oracle_on_paper_final_grids(self, classifier, data_seed):
        rng = np.random.default_rng([54, data_seed])
        features, labels = imbalanced_dataset(rng, 36, 12, m=3, gap=1.5)
        for name, grid in preset_grids("paper-final").items():
            seed = derive_seed(data_seed, name)
            expected, expected_means = naive_select_params(
                features, labels, grid, classifier, seed=seed
            )
            best = select_one(features, labels, grid, classifier, seed=seed)
            assert best is expected, name
            scores = inner_one(features, labels, grid, classifier, seed=seed)
            assert [float(np.mean(row)) for row in scores] == expected_means, name

    def _count_calls(self, monkeypatch, module, name):
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_one_rbu_greedy_run_per_fold_and_gamma(self, monkeypatch):
        calls = self._count_calls(monkeypatch, radial, "rbu_removal_order")
        rng = np.random.default_rng(55)
        features, labels = imbalanced_dataset(rng, 36, 12)
        grid = preset_grids("paper-final")["rbu"]  # 4 gammas x 3 ratios
        select_one(features, labels, grid, "gnb", seed=4)
        assert len(calls) == 6 * 4

    def test_one_smote_neighbour_search_per_fold_and_k(self, monkeypatch):
        calls = self._count_calls(monkeypatch, baselines, "nearest_neighbors")
        rng = np.random.default_rng(56)
        # Ten minority rows per inner training half: every k up to 9 is its own
        # k_eff, and one full neighbour table per fold serves them all.
        features, labels = imbalanced_dataset(rng, 40, 20)
        grid = preset_grids("paper-final")["smote"]  # 5 ks x 3 ratios
        select_one(features, labels, grid, "gnb", seed=4)
        assert len(calls) == 6

    def test_one_metrics_call_per_fold(self, monkeypatch):
        calls = self._count_calls(monkeypatch, evaluation, "compute_metrics")
        rng = np.random.default_rng(62)
        features, labels = imbalanced_dataset(rng, 36, 12)
        grid = preset_grids("paper-final")["smote"]  # 15 points
        select_one(features, labels, grid, "knn", seed=4)
        assert len(calls) == 6

    def test_refused_row_scores_zero_on_its_fold_alone(self, monkeypatch):
        rng = np.random.default_rng(63)
        features, labels = imbalanced_dataset(rng, 36, 12)
        grid = [ResampleSpec("none"), ResampleSpec("rus", {"ratio": 0.5}),
                ResampleSpec("rus", {"ratio": 1.0}), ResampleSpec("ros", {"ratio": 1.0})]
        want = inner_one(features, labels, grid, "gnb", seed=5)
        original = evaluation._fit_and_score
        calls = []

        def patched(classifier, fit_x, fit_y, test_x):
            # Every resampler succeeds, so calls run fold by fold, grid point
            # by point: cell is (fold, grid point).
            cell = divmod(len(calls), len(grid))
            calls.append(cell)
            if cell == (0, 1):
                raise ParameterError("fit refused")
            preds, scores = original(classifier, fit_x, fit_y, test_x)
            if cell in ((2, 3), (4, 0)):
                scores = scores.copy()
                scores[3] = np.nan if cell == (2, 3) else np.inf
            return preds, scores

        monkeypatch.setattr(evaluation, "_fit_and_score", patched)
        got = inner_one(features, labels, grid, "gnb", seed=5)
        assert len(calls) == 6 * len(grid)
        refused = [(1, 0), (3, 2), (0, 4)]  # (grid point, fold)
        assert all(want[cell] > 0 for cell in refused)
        for cell in refused:
            want[cell] = 0.0
        np.testing.assert_array_equal(got, want)

    def test_fold_without_both_classes_scores_zero_everywhere(self):
        # The metrics refuse the fold's own labels, so no grid point scores.
        rng = np.random.default_rng(64)
        features, _ = imbalanced_dataset(rng, 24, 8)
        grid = [ResampleSpec("none"), ResampleSpec("rus", {"ratio": 0.0})]
        got = inner_one(features, np.zeros(32, dtype=np.int64), grid, "knn", seed=6)
        np.testing.assert_array_equal(got, np.zeros((2, 6)))


def tie_heavy_task(rng, n_majority, n_minority):
    """Points on a small integer grid: repeated points give exact ties."""
    return make_task(
        rng.integers(0, 4, size=(n_majority, 2)), rng.integers(1, 5, size=(n_minority, 2))
    )


def assert_same_outcome(got, want):
    np.testing.assert_array_equal(got.majority_indices, want.majority_indices)
    np.testing.assert_array_equal(got.minority_indices, want.minority_indices)
    np.testing.assert_array_equal(got.synthetic, want.synthetic)


class TestSharedFoldWork:
    """Runs given a fold's ``shared`` dict equal the runs without it."""

    # 0.2 first: the stored order must come from a full run, not this ratio.
    RATIOS = (0.2, 0.0, 0.5, 1.0, 0.75)

    @pytest.mark.parametrize(
        "tie_rule, tie_seed", [(TIE_LOWEST_INDEX, None), (TIE_SEEDED_RANDOM, 11)]
    )
    def test_rbu_shared_order_matches_plain_run_at_every_ratio(self, tie_rule, tie_seed):
        rng = np.random.default_rng(57)
        tasks = [random_task(rng, 30, 9, 2), tie_heavy_task(rng, 30, 9)]
        for task in tasks:
            shared = {}
            for gamma in (0.5, 2.0):
                for ratio in self.RATIOS:
                    params = {"gamma": gamma, "ratio": ratio, "tie_rule": tie_rule,
                              "tie_seed": tie_seed}
                    got = apply_resample_detail(task, ResampleSpec("rbu", params), shared=shared)
                    want = rbu_kept_indices(task, RbuParams(**params))
                    np.testing.assert_array_equal(got.majority_indices, want)

    def test_smote_and_pipelines_match_plain_runs(self):
        rng = np.random.default_rng(58)
        smote = [ResampleSpec("smote", {"k": k, "ratio": r}) for k in (1, 3, 5, 9)
                 for r in (0.5, 1.0)]
        pipelines = [stl_spec(k, r) for k in (1, 5) for r in (0.5, 1.0)]
        pipelines += [senn_spec(k, r) for k in (1, 5) for r in (0.5, 1.0)]
        for task in (random_task(rng, 30, 9, 2), tie_heavy_task(rng, 30, 9)):
            shared = {}
            for i, spec in enumerate(smote + pipelines):
                assert_same_outcome(
                    apply_resample_detail(task, spec, seed=i, shared=shared),
                    apply_resample_detail(task, spec, seed=i),
                )

    def test_deterministic_undersamplers_run_once_per_arguments(self, monkeypatch):
        rng = np.random.default_rng(65)
        specs = [ResampleSpec("enn", {"k": k}) for k in (1, 3)]
        specs += [ResampleSpec("renn", {"k": k}) for k in (1, 3)]
        specs += [ResampleSpec("near_miss", {"k": k, "ratio": r}) for k in (1, 3)
                  for r in (0.5, 1.0)]
        names = ("enn_kept_indices", "renn_kept_indices", "near_miss_kept_indices")
        for task in (random_task(rng, 30, 9, 2), tie_heavy_task(rng, 30, 9)):
            want = [apply_resample_detail(task, spec, seed=i) for i, spec in enumerate(specs)]
            calls = []
            for name in names:
                original = getattr(baselines, name)

                def counted(t, *args, _name=name, _original=original, **kwargs):
                    if t is task:  # not RENN's own passes
                        calls.append(_name)
                    return _original(t, *args, **kwargs)

                monkeypatch.setattr(baselines, name, counted)
            shared = {}
            for _ in range(2):  # the second round reuses every result
                for i, spec in enumerate(specs):
                    assert_same_outcome(
                        apply_resample_detail(task, spec, seed=i, shared=shared), want[i]
                    )
            assert len(calls) == len(specs)
            monkeypatch.undo()

    def test_later_stages_do_not_share_the_first_stage_task(self):
        # Stage 1 resamples stage 0's output; results it kept in the fold's
        # dict would be wrong for the fold's own task, and the reverse.
        rng = np.random.default_rng(59)
        smote_half = ResampleSpec("smote", {"k": 3, "ratio": 0.5})
        smote_full = ResampleSpec("smote", {"k": 3, "ratio": 1.0})
        rbu_half = ResampleSpec("rbu", {"gamma": 1.0, "ratio": 0.5})
        rbu_full = ResampleSpec("rbu", {"gamma": 1.0, "ratio": 1.0})
        pairs = [
            (smote_half, smote_full),
            (ResampleSpec("ros", {"ratio": 0.5}), smote_full),
            (ResampleSpec("rus", {"ratio": 0.5}), rbu_half),
            (rbu_half, rbu_full),
        ]
        singles = [smote_full, rbu_full]
        for task in (random_task(rng, 30, 9, 2), tie_heavy_task(rng, 30, 9)):
            shared = {}
            for i, (first, second) in enumerate(pairs):
                spec = ResampleSpec("pipeline", stages=(first, second))
                got = apply_resample(task, spec, seed=i, shared=shared)
                want = naive_pipeline(task, spec.stages, seed=i)
                np.testing.assert_array_equal(got.majority, want.majority)
                np.testing.assert_array_equal(got.minority, want.minority)
            for i, spec in enumerate(singles):
                assert_same_outcome(
                    apply_resample_detail(task, spec, seed=i, shared=shared),
                    apply_resample_detail(task, spec, seed=i),
                )


class TestRunExperiment:
    def _datasets(self, seed=60, n=2):
        rng = np.random.default_rng(seed)
        out = {}
        for i in range(n):
            features, labels = imbalanced_dataset(rng, 36, 12)
            out[f"synth{i}"] = as_dataset(features, labels)
        return out

    def test_structure_one_cell(self):
        datasets = self._datasets(n=1)
        report = run_experiment(
            datasets,
            {"none": [ResampleSpec("none")]},
            ["knn"],
            seed=7,
        )
        assert len(report.runs) == 10
        assert report.leakage_checks == 10
        assert report.runs[0]["metrics"] is not None
        assert report.aggregates[0]["folds"] == 10
        assert report.ranks == []  # single method: no ranking

    def test_none_plus_rus_with_two_classifiers(self):
        datasets = self._datasets(n=1)
        report = run_experiment(
            datasets,
            {"none": [ResampleSpec("none")], "rus": [ResampleSpec("rus", {"ratio": 1.0})]},
            ["knn", "gnb"],
            seed=7,
        )
        assert len(report.runs) == 40  # 1 dataset x 2 methods x 2 classifiers x 10 folds
        assert {r["classifier"] for r in report.runs} == {"knn", "gnb"}
        metrics = report.aggregate_metrics("synth0", "rus", "knn")
        assert 0.0 <= metrics["g_mean"] <= 1.0

    def test_jobs_parallel_identical_report(self):
        datasets = self._datasets(n=2)
        methods = {
            "none": [ResampleSpec("none")],
            "rus": [ResampleSpec("rus", {"ratio": r}) for r in (0.5, 1.0)],
        }
        sequential = run_experiment(datasets, methods, ["gnb"], seed=11, jobs=1)
        parallel = run_experiment(datasets, methods, ["gnb"], seed=11, jobs=4)
        assert sequential.to_json() == parallel.to_json()

    def test_jobs_identical_when_neighbour_calls_span_blocks(self, monkeypatch):
        # Tiny blocks make every distance call of the sweep span several,
        # which this process shares between two threads.  Pool workers
        # started by fork inherit the tiny blocks; they run them on one
        # thread (see test_pool_workers_run_blocks_on_one_thread).
        threaded = []

        def cpu_count():
            threaded.append(1)
            return 2

        datasets = self._datasets(n=2)
        methods = {
            "rbu": [ResampleSpec("rbu", {"gamma": g, "ratio": 1.0}) for g in (0.5, 2.0)],
            "enn": [ResampleSpec("enn", {"k": 3})],
            "near_miss": [ResampleSpec("near_miss", {"k": 3, "ratio": 1.0})],
            "smote": [ResampleSpec("smote", {"k": 3, "ratio": 1.0})],
        }
        serial = run_experiment(datasets, methods, ["knn", "gnb"], seed=12, repeats=1, jobs=1)
        monkeypatch.setattr(neighbors, "_cpu_count", cpu_count)
        monkeypatch.setattr(neighbors, "_BLOCK", 40)
        sequential = run_experiment(datasets, methods, ["knn", "gnb"], seed=12, repeats=1, jobs=1)
        assert threaded
        parallel = run_experiment(datasets, methods, ["knn", "gnb"], seed=12, repeats=1, jobs=2)
        assert all(row["metrics"] is not None for row in parallel.runs)
        assert sequential.to_json() == parallel.to_json() == serial.to_json()

    def test_pool_workers_run_blocks_on_one_thread(self):
        # Checked in the workers themselves, whatever the start method.
        assert not neighbors._single_thread
        with evaluation._worker_pool(2) as pool:
            assert list(pool.map(_blocks_on_one_thread, range(4))) == [True] * 4

    def test_failed_cells_are_recorded_not_fatal(self):
        datasets = self._datasets(n=1)
        methods = {
            "bad": [ResampleSpec("smote", {"k": 0, "ratio": 1.0})],
            "none": [ResampleSpec("none")],
        }
        report = run_experiment(datasets, methods, ["knn"], seed=5)
        bad_rows = [r for r in report.runs if r["method"] == "bad"]
        assert all(r["metrics"] is None and "error" in r for r in bad_rows)
        good_rows = [r for r in report.runs if r["method"] == "none"]
        assert all(r["metrics"] is not None for r in good_rows)
        # dataset excluded from ranks because a method has missing cells
        assert report.ranks == [] or all(
            row["datasets"] == [] for row in report.ranks
        )

    def test_unexpected_inner_error_fails_the_cell(self, monkeypatch):
        def broken(task, ratio, seed):
            raise IndexError("broken resampler")

        monkeypatch.setattr(baselines, "rus_kept_indices", broken)
        methods = {
            "rus": [ResampleSpec("rus", {"ratio": 1.0}), ResampleSpec("none")],
            "none": [ResampleSpec("none")],
        }
        report = run_experiment(self._datasets(n=1), methods, ["knn"], seed=5)
        rus_rows = [r for r in report.runs if r["method"] == "rus"]
        assert all(r["metrics"] is None for r in rus_rows)
        assert all(r["error"] == "IndexError: broken resampler" for r in rus_rows)
        assert all(r["metrics"] is not None for r in report.runs if r["method"] == "none")
        assert json.loads(report.to_json())["schema"] == 1

    def test_global_standardize_mode(self):
        datasets = self._datasets(n=1)
        report = run_experiment(
            datasets, {"none": [ResampleSpec("none")]}, ["knn"], seed=3,
            standardize="global",
        )
        assert all(r["metrics"] is not None for r in report.runs)

    def test_json_report_schema(self):
        datasets = self._datasets(n=2)
        methods = {
            "none": [ResampleSpec("none")],
            "rus": [ResampleSpec("rus", {"ratio": 1.0})],
        }
        report = run_experiment(datasets, methods, ["gnb"], seed=13, with_dataset_stats=True)
        doc = json.loads(report.to_json())
        assert doc["schema"] == 1
        assert doc["seed"] == 13
        assert len(doc["runs"]) == 40
        assert {r["metric"] for r in doc["ranks"]} == {
            "precision", "recall", "f_measure", "auc", "g_mean", "balanced_accuracy",
        }
        assert doc["friedman"][0]["df"] == 1
        assert len(doc["dataset_stats"]) == 2
        csv_text = report.to_csv()
        assert csv_text.count("\n") == 1 + 40

    def test_dataset_stats_rows_are_dataset_stats(self):
        datasets = self._datasets(n=2)
        rng = np.random.default_rng(4)
        colours = rng.choice(["red", "green", "blue"], size=48)
        datasets["mixed"] = parse_csv(
            "x,colour,class\n"
            + "".join(f"{rng.normal():.6f},{c},{'pos' if i < 16 else 'neg'}\n"
                      for i, c in enumerate(colours))
        )
        labels = {"synth0": "pos", "synth1": "pos", "mixed": "pos"}
        report = run_experiment(datasets, {"none": [ResampleSpec("none")]}, ["gnb"], seed=13,
                                minority_labels=labels, with_dataset_stats=True)
        assert report.dataset_stats == [
            {"dataset": name, **asdict(dataset_stats(ds, minority_label=labels[name]))}
            for name, ds in datasets.items()
        ]

    def test_resampling_never_touches_test_half(self):
        # training-side resampling cannot shrink or grow the test fold
        datasets = self._datasets(n=1)
        report = run_experiment(
            datasets, {"rus": [ResampleSpec("rus", {"ratio": 1.0})]}, ["knn"], seed=2
        )
        assert report.leakage_checks == 10
        assert all(r["metrics"] is not None for r in report.runs)


class TestSweepUnits:
    """Each (dataset, outer fold) is one unit that selects every cell's
    parameters in one ``select_params`` call."""

    def _dataset(self, seed, n_majority=36, n_minority=12):
        return imbalanced_dataset(np.random.default_rng(seed), n_majority, n_minority, m=3,
                                  gap=1.5)

    def _unit(self, features, labels, seed=8):
        """The payload of outer fold 0 with the knn and gnb paper-final cells."""
        plan = make_folds(labels, 1, derive_seed(seed, "d", "folds"))
        cells = [(c, name, grid) for c in ("knn", "gnb")
                 for name, grid in preset_grids("paper-final").items()]
        return ("d", features, labels, 0, plan.folds[0], cells, seed, "per-fold")

    def _expected_rows(self, datasets, classifiers, seed, repeats):
        """Every cell fold by fold, selection by ``naive_select_params``."""
        rows = {}
        for name, (features, labels) in datasets.items():
            plan = make_folds(labels, repeats, derive_seed(seed, name, "folds"))
            for fold_idx, (train_idx, test_idx) in enumerate(plan.folds):
                scaler = evaluation.fit_standardizer(features[train_idx])
                train_x, test_x = scaler.transform(features[train_idx]), scaler.transform(
                    features[test_idx]
                )
                train_y, test_y = labels[train_idx], labels[test_idx]
                for classifier in classifiers:
                    for method, grid in preset_grids("paper-final").items():
                        unit_seed = derive_seed(seed, name, classifier, method, fold_idx)
                        best = grid[0]
                        if len(grid) > 1:
                            best, _ = naive_select_params(
                                train_x, train_y, grid, classifier, unit_seed,
                                plan_seed=derive_seed(seed, name, "inner", fold_idx),
                            )
                        task = binary_task_from_labels(train_x, train_y)
                        fit_x, fit_y = _stack_task(
                            apply_resample(task, best, seed=derive_seed(unit_seed, "final"))
                        )
                        model = make_classifier(classifier).fit(fit_x, fit_y)
                        scores = model.score_samples(test_x)
                        metrics = compute_metrics(test_y, (scores > 0.5).astype(int), scores)
                        rows[(name, classifier, method, fold_idx)] = (
                            best.label, metrics.as_dict()
                        )
        return rows

    @pytest.fixture(scope="class")
    def oracle_case(self):
        datasets = {f"r{i}": self._dataset([66, i], 32, 14) for i in range(2)}
        return datasets, self._expected_rows(datasets, ["knn", "gnb"], seed=21, repeats=1)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_paper_final_matches_per_cell_oracle(self, oracle_case, jobs):
        datasets, expected = oracle_case
        report = run_experiment(
            {name: as_dataset(*data) for name, data in datasets.items()},
            preset_grids("paper-final"), ["knn", "gnb"], seed=21, repeats=1, jobs=jobs,
        )
        assert len(report.runs) == len(expected) == 2 * 2 * 11 * 2
        for row in report.runs:
            key = (row["dataset"], row["classifier"], row["method"], row["fold"])
            assert (row["spec"], row["metrics"]) == expected[key], key

    def test_runner_error_fails_only_its_own_cells(self, monkeypatch):
        features, labels = self._dataset(67)
        methods = preset_grids("paper-final")
        without = {name: grid for name, grid in methods.items() if name != "rus"}
        clean = run_experiment({"d": as_dataset(features, labels)}, without, ["knn", "gnb"],
                               seed=4, repeats=1)

        selecting, fold_tasks = [], []
        original_select = evaluation.select_params
        original_rus = baselines.rus_kept_indices

        def select(*args, **kwargs):
            selecting.append(True)
            fold_tasks.clear()
            try:
                return original_select(*args, **kwargs)
            finally:
                selecting.pop()

        def rus(task, ratio, seed):
            # Raise on the second inner fold of every selection, alone.
            if selecting:
                if not any(task is t for t in fold_tasks):
                    fold_tasks.append(task)
                if task is fold_tasks[-1] and len(fold_tasks) == 2:
                    raise RuntimeError("rus broke on one inner fold")
            return original_rus(task, ratio, seed)

        monkeypatch.setattr(evaluation, "select_params", select)
        monkeypatch.setattr(baselines, "rus_kept_indices", rus)
        report = run_experiment({"d": as_dataset(features, labels)}, methods, ["knn", "gnb"],
                                seed=4, repeats=1)
        rus_rows = [r for r in report.runs if r["method"] == "rus"]
        assert len(rus_rows) == 2 * 2
        for row in rus_rows:
            assert row["spec"] is None and row["metrics"] is None
            assert row["error"] == "RuntimeError: rus broke on one inner fold"
        others = [r for r in report.runs if r["method"] != "rus"]
        assert others == clean.runs

    def test_dataset_too_small_for_the_inner_plan(self):
        # Five minority rows per outer half; the inner plan needs six.
        features, labels = self._dataset(68, 30, 10)
        methods = preset_grids("paper-final")
        report = run_experiment({"d": as_dataset(features, labels)}, methods, ["knn", "gnb"],
                                seed=4, repeats=1)
        assert len(report.runs) == 2 * 11 * 2
        for row in report.runs:
            if len(methods[row["method"]]) == 1:
                assert row["metrics"] is not None, row
            else:
                assert row["metrics"] is None
                assert row["error"] == (
                    "ParameterError: smallest class has 5 members, need at least 6"
                )
        assert {r["method"] for r in report.runs if r["metrics"]} == {"none", "tomek"}

    def test_one_unit_shares_inner_work_across_cells(self, monkeypatch):
        features, labels = self._dataset(69, 40, 20)
        selections, fold_tasks, counts = [], [], {}
        inside = []

        def wrap(module, name, record):
            original = getattr(module, name)

            def wrapped(*args, **kwargs):
                result = original(*args, **kwargs)
                if inside:
                    record(name, args, kwargs, result)
                return result

            monkeypatch.setattr(module, name, wrapped)

        def count(name, args, kwargs, result):
            counts[name] = counts.get(name, 0) + 1

        def fold_task(name, args, kwargs, result):
            fold_tasks.append(result)

        def smote_search(name, args, kwargs, result):
            queries, points = args[0], args[1]
            if queries is points and any(queries is t.minority for t in fold_tasks):
                count("smote search", args, kwargs, result)

        def undersampler(name, args, kwargs, result):
            task = args[0]
            for fold_idx, t in enumerate(fold_tasks):
                if task is t:
                    key = (name, fold_idx, *sorted(kwargs.items()))
                    counts[key] = counts.get(key, 0) + 1

        original_select = evaluation.select_params

        def select(*args, **kwargs):
            selections.append(args[2])
            inside.append(True)
            try:
                return original_select(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(evaluation, "select_params", select)
        wrap(evaluation, "binary_task_from_labels", fold_task)
        wrap(evaluation, "compute_metrics", count)
        wrap(radial, "rbu_removal_order", count)
        wrap(baselines, "nearest_neighbors", smote_search)
        for name in ("enn_kept_indices", "renn_kept_indices", "near_miss_kept_indices"):
            wrap(baselines, name, undersampler)

        rows, checks = evaluation._evaluate_unit(self._unit(features, labels))
        assert checks == len(rows) == 2 * 11
        assert all(r["metrics"] is not None for r in rows)
        assert len(selections) == 1 and len(selections[0]) == 2 * 11
        assert len(fold_tasks) == 6
        assert counts.pop("compute_metrics") == 6
        assert counts.pop("rbu_removal_order") == 4 * 6  # gammas x inner folds
        assert counts.pop("smote search") == 6
        # Four ks each for ENN and RENN, four (k, ratio) pairs for NearMiss.
        assert len(counts) == 6 * 12
        assert set(counts.values()) == {1}


class TestRanks:
    def test_two_methods_strict_order(self):
        means = {
            "d1": {"a": 0.9, "b": 0.5},
            "d2": {"a": 0.8, "b": 0.6},
            "d3": {"a": 0.7, "b": 0.1},
        }
        average, per_dataset, used = rank_methods(means, ["a", "b"])
        assert average == {"a": 1.0, "b": 2.0}
        assert used == ["d1", "d2", "d3"]

    def test_exact_tie_averages_positions(self):
        means = {"d1": {"a": 0.5, "b": 0.5}}
        average, per_dataset, _ = rank_methods(means, ["a", "b"])
        assert per_dataset["d1"] == {"a": 1.5, "b": 1.5}

    def test_three_by_three_hand_ranking(self):
        means = {
            "d1": {"a": 0.9, "b": 0.8, "c": 0.7},
            "d2": {"a": 0.1, "b": 0.3, "c": 0.2},
            "d3": {"a": 0.5, "b": 0.5, "c": 0.9},
        }
        # hand ranks: d1 -> a1 b2 c3; d2 -> b1 c2 a3; d3 -> c1, a/b tie 2.5
        average, per_dataset, _ = rank_methods(means, ["a", "b", "c"])
        assert per_dataset["d3"] == {"a": 2.5, "b": 2.5, "c": 1.0}
        assert average["a"] == pytest.approx((1 + 3 + 2.5) / 3)
        assert average["b"] == pytest.approx((2 + 1 + 2.5) / 3)
        assert average["c"] == pytest.approx((3 + 2 + 1) / 3)

    def test_missing_cells_exclude_dataset_with_warning(self):
        means = {
            "d1": {"a": 0.9, "b": 0.5},
            "d2": {"a": 0.8, "b": None},
        }
        with pytest.warns(UserWarning, match="excluded"):
            average, per_dataset, used = rank_methods(means, ["a", "b"])
        assert used == ["d1"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_mean_refused(self, bad):
        means = {"d1": {"a": 0.9, "b": bad}}
        with pytest.raises(ParameterError, match="finite"):
            rank_methods(means, ["a", "b"])

    def test_rank_sums_invariant(self):
        rng = np.random.default_rng(70)
        for _ in range(20):
            k = int(rng.integers(2, 7))
            values = np.round(rng.random(k), 1)  # coarse -> frequent ties
            means = {"d": {f"m{i}": float(values[i]) for i in range(k)}}
            _, per_dataset, _ = rank_methods(means, [f"m{i}" for i in range(k)])
            assert sum(per_dataset["d"].values()) == pytest.approx(k * (k + 1) / 2)

    def test_average_ranks_public_wrapper(self):
        rng = np.random.default_rng(61)
        out = {}
        for i in range(2):
            features, labels = imbalanced_dataset(rng, 36, 12)
            out[f"s{i}"] = as_dataset(features, labels)
        report = run_experiment(
            out,
            {"none": [ResampleSpec("none")], "rus": [ResampleSpec("rus", {"ratio": 1.0})]},
            ["gnb"],
            seed=5,
        )
        ranks = average_ranks(report, "g_mean", "gnb")
        assert set(ranks) == {"none", "rus"}
        assert sum(ranks.values()) == pytest.approx(3.0)


class TestFriedman:
    def test_complete_ties_give_zero(self):
        ranks = np.tile([1.5, 1.5], (4, 1))
        chi2, df = friedman_statistic(ranks)
        assert chi2 == pytest.approx(0.0, abs=1e-12)
        assert df == 1

    def test_two_methods_closed_form(self):
        # K=2: chi2 reduces to N * (mean rank difference)^2
        ranks = np.array([[1.0, 2.0], [1.0, 2.0], [2.0, 1.0], [1.0, 2.0], [1.0, 2.0]])
        mean = ranks.mean(axis=0)
        chi2, df = friedman_statistic(ranks)
        assert chi2 == pytest.approx(len(ranks) * (mean[0] - mean[1]) ** 2, abs=1e-12)
        assert df == 1

    def test_hand_evaluated_4x3(self):
        # consistent ordering over 4 datasets and 3 methods
        ranks = np.tile([1.0, 2.0, 3.0], (4, 1))
        chi2, df = friedman_statistic(ranks)
        assert chi2 == pytest.approx(8.0, abs=1e-12)
        assert df == 2

    def test_degenerate_shapes(self):
        with pytest.raises(ParameterError):
            friedman_statistic(np.array([[1.0, 2.0]]))
        with pytest.raises(ParameterError):
            friedman_statistic(np.array([[1.0], [1.0]]))
