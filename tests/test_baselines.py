import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from rbu import (
    BinaryTask,
    ParameterError,
    RbuParams,
    ResampleSpec,
    apply_resample,
    apply_standardizer,
    encode_categoricals,
    fit_standardizer,
    parse_csv,
    rbu_undersample,
    split_binary,
)
from rbu import baselines, neighbors
from rbu.baselines import (
    enn_kept_indices,
    near_miss_kept_indices,
    renn_kept_indices,
    ros_picked_indices,
    rus_kept_indices,
    smote_synthetic,
    tomek_kept_indices,
)
from rbu.seeding import derive_seed

from oracles import (
    RESAMPLE_NAMES,
    argsort_smote_synthetic,
    make_task,
    naive_pipeline,
    naive_renn_kept,
    naive_tomek_kept,
    numbered,
    random_task,
    resample_spec,
    rows_with_minority,
)


def resample(task, method, seed=None, **params):
    """``task`` resampled by a spec of ``method`` with ``params``."""
    return apply_resample(task, ResampleSpec(method, params), seed=seed)


def brute_force_knn_vote(points, labels, query_index, k):
    """Exhaustive k-NN vote oracle: distances sorted with index tie-break."""
    query = points[query_index]
    order = sorted(
        (i for i in range(len(points)) if i != query_index),
        key=lambda i: (float(np.linalg.norm(points[i] - query)), i),
    )
    votes = [labels[i] for i in order[:k]]
    other = sum(1 for v in votes if v != labels[query_index])
    return other * 2 > k  # strict majority for the other class


class TestRus:
    def test_ratio_one_balances(self):
        rng = np.random.default_rng(0)
        task = random_task(rng, 23, 7, 3)
        assert len(resample(task, "rus", ratio=1.0, seed=5).majority) == task.n_minority

    def test_ratio_zero_noop(self):
        task = make_task([[0.0], [1.0], [2.0]], [[9.0]])
        out = resample(task, "rus", ratio=0.0, seed=5).majority
        np.testing.assert_array_equal(out, task.majority)

    def test_seed_determinism(self):
        rng = np.random.default_rng(1)
        task = random_task(rng, 30, 10, 2)
        a = resample(task, "rus", ratio=0.5, seed=7).majority
        b = resample(task, "rus", ratio=0.5, seed=7).majority
        assert a.tobytes() == b.tobytes()
        c = resample(task, "rus", ratio=0.5, seed=8).majority
        assert a.shape == c.shape

    def test_subset_of_input(self):
        rng = np.random.default_rng(2)
        task = random_task(rng, 20, 5, 2)
        out = resample(task, "rus", ratio=0.6, seed=3).majority
        rows = {tuple(r) for r in task.majority}
        assert all(tuple(r) in rows for r in out)


class TestRos:
    def test_ratio_one_balances(self):
        rng = np.random.default_rng(3)
        task = random_task(rng, 19, 6, 2)
        assert len(resample(task, "ros", ratio=1.0, seed=1).minority) == task.n_majority

    def test_ratio_zero_noop(self):
        task = make_task([[0.0], [1.0]], [[9.0]])
        out = resample(task, "ros", ratio=0.0, seed=1).minority
        np.testing.assert_array_equal(out, task.minority)

    def test_only_duplicates(self):
        rng = np.random.default_rng(4)
        task = random_task(rng, 15, 4, 3)
        out = resample(task, "ros", ratio=1.0, seed=2).minority
        originals = {tuple(r) for r in task.minority}
        assert all(tuple(r) in originals for r in out)
        np.testing.assert_array_equal(out[: task.n_minority], task.minority)


class TestSmote:
    def test_needs_two_minority_points(self):
        task = make_task([[0.0], [1.0], [2.0]], [[9.0]])
        with pytest.raises(ParameterError, match="2 minority"):
            resample(task, "smote", k=1, ratio=1.0, seed=0)

    def test_collinear_segment(self):
        task = make_task(
            [[float(i), 5.0] for i in range(8)], [[0.0, 0.0], [1.0, 0.0]]
        )
        out = resample(task, "smote", k=1, ratio=1.0, seed=11).minority
        synth = out[task.n_minority :]
        assert len(synth) == 6
        assert np.all(synth[:, 1] == 0.0)
        assert np.all((synth[:, 0] >= 0.0) & (synth[:, 0] <= 1.0))

    def test_interpolation_identity(self):
        # every synthetic point lies on the segment between its seed and a neighbor
        rng = np.random.default_rng(6)
        task = random_task(rng, 25, 8, 3)
        synth = smote_synthetic(task, k=3, ratio=1.0, seed=13)
        for s in synth:
            on_segment = False
            for a in task.minority:
                for b in task.minority:
                    d = np.linalg.norm(a - b)
                    if d == 0:
                        continue
                    if abs(np.linalg.norm(s - a) + np.linalg.norm(s - b) - d) < 1e-9:
                        on_segment = True
            assert on_segment

    def test_convex_hull_coordinatewise(self):
        rng = np.random.default_rng(7)
        task = random_task(rng, 30, 10, 4)
        synth = smote_synthetic(task, k=5, ratio=1.0, seed=3)
        lo, hi = task.minority.min(axis=0), task.minority.max(axis=0)
        assert np.all(synth >= lo - 1e-12) and np.all(synth <= hi + 1e-12)

    def test_k_capped_at_minority_minus_one(self):
        task = make_task([[0.0], [1.0], [2.0], [3.0]], [[10.0], [11.0]])
        out = resample(task, "smote", k=50, ratio=1.0, seed=0).minority
        assert len(out) == task.n_majority

    @pytest.mark.parametrize("k", [1, 3, 5, 9])
    def test_matches_argsort_reference_on_tie_heavy_grid(self, k):
        # Integer coordinates make many neighbour distances tie exactly, so
        # the synthetic points depend on the order of tied neighbours.
        rng = np.random.default_rng(15)
        majority = rng.integers(0, 4, size=(120, 3)).astype(float)
        minority = rng.integers(0, 4, size=(50, 3)).astype(float)
        synth = smote_synthetic(make_task(majority, minority), k, 1.0, seed=16)
        expected = argsort_smote_synthetic(majority, minority, k, 1.0, seed=16)
        assert synth.tobytes() == expected.tobytes()

    def test_determinism(self):
        rng = np.random.default_rng(8)
        task = random_task(rng, 12, 5, 2)
        a = resample(task, "smote", k=3, ratio=0.5, seed=21).minority
        b = resample(task, "smote", k=3, ratio=0.5, seed=21).minority
        assert a.tobytes() == b.tobytes()


class TestEnn:
    def test_surrounded_majority_point_removed(self):
        task = make_task(
            [[0.0, 0.0], [10.0, 10.0], [10.0, 11.0], [11.0, 10.0]],
            [[0.1, 0.0], [0.0, 0.1], [-0.1, 0.0]],
        )
        out = resample(task, "enn", k=3).majority
        assert not any(np.array_equal(r, [0.0, 0.0]) for r in out)

    def test_pure_cluster_kept(self):
        task = make_task(
            [[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]], [[10.0, 10.0], [10.0, 10.1]]
        )
        out = resample(task, "enn", k=2).majority
        assert len(out) == 3

    def test_matches_brute_force_vote_on_crafted_instance(self):
        majority = np.array([[0.0, 0.0], [0.2, 0.0], [5.0, 5.0], [9.0, 9.0]])
        minority = np.array([[0.1, 0.1], [0.0, 0.2], [8.9, 9.0]])
        task = make_task(majority, minority)
        points = np.vstack([majority, minority])
        labels = [0] * 4 + [1] * 3
        expected = [
            i for i in range(4) if not brute_force_knn_vote(points, labels, i, 3)
        ]
        np.testing.assert_array_equal(enn_kept_indices(task, 3), expected)

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            task = random_task(rng, 12, 6, 2, spread=1.0)
            points = np.vstack([task.majority, task.minority])
            labels = [0] * 12 + [1] * 6
            for k in (1, 3, 4):
                expected = [
                    i for i in range(12) if not brute_force_knn_vote(points, labels, i, k)
                ]
                np.testing.assert_array_equal(enn_kept_indices(task, k), expected)

    def test_too_few_points(self):
        task = make_task([[0.0]], [[1.0]])
        with pytest.raises(ParameterError, match="other points"):
            resample(task, "enn", k=5)


class TestRenn:
    def test_stable_instance_equals_single_pass(self):
        rng = np.random.default_rng(10)
        task = random_task(rng, 15, 5, 2, spread=1.0)
        once = resample(task, "enn", k=3).majority
        stable_task = make_task(once, task.minority)
        if len(resample(stable_task, "enn", k=3).majority) == len(once):  # one pass is stable
            np.testing.assert_array_equal(resample(task, "renn", k=3).majority, once)

    def test_no_minority_influence_means_no_removal(self):
        task = make_task(
            [[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [0.1, 0.1]], [[50.0, 50.0], [50.1, 50.0]]
        )
        np.testing.assert_array_equal(resample(task, "renn", k=3).majority, task.majority)

    def test_chained_removal_goes_beyond_one_pass(self):
        # Majority chain toward a minority cluster: the first pass removes the
        # closest link, exposing the next one on the second pass.
        majority = np.array([[0.0], [1.0], [2.0], [30.0], [31.0], [32.0], [33.0]])
        minority = np.array([[-1.0], [-0.5], [0.5]])
        task = make_task(majority, minority)
        one_pass = resample(task, "enn", k=3).majority
        repeated = resample(task, "renn", k=3).majority
        assert len(repeated) < len(one_pass)
        # second-pass result matches manually re-applying enn to the first pass
        second_pass = resample(make_task(one_pass, minority), "enn", k=3).majority
        np.testing.assert_array_equal(
            repeated, resample(make_task(second_pass, minority), "enn", k=3).majority
        )

    def test_later_passes_query_only_rows_that_lost_a_neighbour(self, monkeypatch):
        majority = np.array([[0.0], [1.0], [2.0], [30.0], [31.0], [32.0], [33.0]])
        task = make_task(majority, [[-1.0], [-0.5], [0.5]])
        queried = []
        search = baselines.nearest_neighbors

        def counted(queries, *args, **kwargs):
            queried.append(len(queries))
            return search(queries, *args, **kwargs)

        monkeypatch.setattr(baselines, "nearest_neighbors", counted)
        one_pass = enn_kept_indices(task, 3)
        kept = renn_kept_indices(task, 3)
        assert queried[:2] == [7, 7] and len(one_pass) == 6
        # Points 1 and 2 lost point 0; the four far points keep their lists.
        assert queried[2:] == [2] and kept.tolist() == [3, 4, 5, 6]

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(15)
        # Majority points at 0, 1, 3, 7, ...: each is nearer the minority
        # than its next neighbour once the previous one is gone, so k=1
        # removes one point per pass.
        chain = make_task(2.0 ** np.arange(6)[:, None] - 1, [[-0.5]])
        tasks = [chain] + [random_task(rng, 25, 8, 2, spread=1.0) for _ in range(8)]
        tasks += [
            make_task(rng.integers(0, 4, size=(30, 2)), rng.integers(1, 5, size=(10, 2)))
            for _ in range(8)
        ]
        most_passes = []
        for task in tasks:
            passes = []
            for k in range(1, min(8, task.n_majority + task.n_minority)):
                want, removing = naive_renn_kept(task.majority, task.minority, k)
                np.testing.assert_array_equal(renn_kept_indices(task, k), want)
                passes.append(removing)
            most_passes.append(max(passes))
        assert most_passes[0] == 6  # the chain, point by point
        assert sum(passes >= 3 for passes in most_passes) >= 3


class TestTomek:
    def test_isolated_cross_pair_removes_majority_member(self):
        task = make_task(
            [[0.0, 0.0], [10.0, 10.0], [10.5, 10.0]], [[0.4, 0.0]]
        )
        out = resample(task, "tomek").majority
        assert not any(np.array_equal(r, [0.0, 0.0]) for r in out)
        assert len(out) == 2

    def test_separated_clusters_untouched(self):
        task = make_task(
            [[0.0, 0.0], [0.3, 0.0], [0.0, 0.3]], [[10.0, 10.0], [10.3, 10.0]]
        )
        np.testing.assert_array_equal(resample(task, "tomek").majority, task.majority)

    def test_two_links_on_crafted_instance(self):
        majority = np.array(
            [[0.0, 0.0], [20.0, 0.0], [40.0, 40.0], [0.1, 40.0]]
        )
        minority = np.array([[1.0, 0.0], [21.0, 0.0]])
        task = make_task(majority, minority)
        expected_kept = naive_tomek_kept(majority, minority)
        assert expected_kept == [2, 3]
        np.testing.assert_array_equal(tomek_kept_indices(task), expected_kept)

    def test_matches_brute_force_on_random_tie_heavy_instances(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            n_majority, n_minority = rng.integers(1, 30), rng.integers(1, 12)
            majority = rng.integers(0, 4, size=(n_majority, 2)).astype(float)
            minority = rng.integers(0, 4, size=(n_minority, 2)).astype(float)
            np.testing.assert_array_equal(
                tomek_kept_indices(make_task(majority, minority)),
                naive_tomek_kept(majority, minority),
            )


class TestNearMiss:
    def test_point_among_minority_retained(self):
        majority = np.array([[0.0, 0.0], [50.0, 50.0], [60.0, 60.0]])
        minority = np.array([[0.5, 0.0], [0.0, 0.5]])
        task = make_task(majority, minority)
        out = resample(task, "near_miss", k=2, ratio=1.0).majority
        assert len(out) == 2
        assert any(np.array_equal(r, [0.0, 0.0]) for r in out)

    def test_far_outlier_removed_first(self):
        majority = np.array([[0.0], [1.0], [2.0], [100.0]])
        minority = np.array([[0.5], [1.5]])
        task = make_task(majority, minority)
        out = resample(task, "near_miss", k=2, ratio=0.5).majority  # remove ceil(0.5*2)=1
        assert not any(np.array_equal(r, [100.0]) for r in out)

    def test_matches_sorted_mean_distance_oracle(self):
        rng = np.random.default_rng(12)
        majority = rng.normal(size=(8, 2))
        minority = rng.normal(size=(3, 2))
        task = make_task(majority, minority)
        k, ratio = 2, 1.0
        means = []
        for i in range(8):
            dists = sorted(float(np.linalg.norm(m - majority[i])) for m in minority)
            means.append(np.mean(dists[:k]))
        n_keep = 8 - int(np.ceil(ratio * (8 - 3)))
        expected = sorted(sorted(range(8), key=lambda i: (means[i], i))[:n_keep])
        np.testing.assert_array_equal(near_miss_kept_indices(task, k, ratio), expected)

    def test_k_capped_at_minority_size(self):
        task = make_task([[0.0], [1.0], [2.0]], [[0.5]])
        out = resample(task, "near_miss", k=10, ratio=1.0).majority
        assert len(out) == 1

    def test_needs_a_minority_point(self):
        task = make_task([[0.0], [1.0]], [])
        with pytest.raises(ParameterError, match="1 minority"):
            resample(task, "near_miss", k=3, ratio=0.5)

    def test_ratio_zero_rejected(self):
        task = make_task([[0.0], [1.0]], [[0.5]])
        with pytest.raises(ParameterError):
            resample(task, "near_miss", k=1, ratio=0.0)

    def test_row_blocks_match_unblocked_reference(self, monkeypatch):
        # Integer coordinates make many mean distances tie exactly.
        rng = np.random.default_rng(20)
        majority = rng.integers(0, 4, size=(50, 2)).astype(float)
        minority = rng.integers(0, 4, size=(9, 2)).astype(float)
        task = make_task(majority, minority)
        monkeypatch.setattr(neighbors, "_BLOCK", 3 * len(minority))  # 3 rows per block
        for k in (1, 3, 9, 20):
            nearest = np.sort(cdist(majority, minority), axis=1)[:, : min(k, 9)]
            order = np.argsort(nearest.mean(axis=1), kind="stable")
            for ratio in (0.5, 1.0):
                n_keep = 50 - math.ceil(ratio * (50 - 9))
                np.testing.assert_array_equal(
                    near_miss_kept_indices(task, k, ratio), np.sort(order[:n_keep])
                )


# Ratios below 1 leave an excess for the second stage to act on.
PIPELINE_STAGES = {
    "ros": ResampleSpec("ros", {"ratio": 0.5}),
    "smote": ResampleSpec("smote", {"k": 3, "ratio": 0.5}),
    "rus": ResampleSpec("rus", {"ratio": 0.5}),
    "tomek": ResampleSpec("tomek"),
    "enn": ResampleSpec("enn", {"k": 3}),
    "near_miss": ResampleSpec("near_miss", {"k": 2, "ratio": 0.5}),
    "rbu": ResampleSpec("rbu", {"gamma": 1.0, "ratio": 0.5}),
}


# One spec of each method in the table; the pipeline both copies and adds rows.
EVERY_METHOD = {
    "none": ResampleSpec("none"),
    **PIPELINE_STAGES,
    "renn": ResampleSpec("renn", {"k": 3}),
    "pipeline": ResampleSpec("pipeline", stages=(PIPELINE_STAGES["ros"], PIPELINE_STAGES["smote"])),
}


class TestOutcome:
    def test_every_method_is_covered(self):
        assert set(EVERY_METHOD) == set(baselines.METHODS)

    @pytest.mark.parametrize("method", sorted(EVERY_METHOD))
    def test_rows_rebuild_the_resampled_task(self, method):
        rng = np.random.default_rng(19)
        for seed in range(4):
            task = numbered(random_task(rng, 24, 7, 2, spread=1.0))
            out = apply_resample(task, EVERY_METHOD[method], seed=seed)
            rows = out.source_rows
            assert len(rows) == len(out.points)
            # Every point not made by the method is the task row it names.
            assert out.points[rows >= 0].tobytes() == task.points[rows[rows >= 0]].tobytes()
            # The new task's classes are views of its own, fresh points.
            assert out.majority.base is out.points and out.minority.base is out.points
            assert not np.shares_memory(out.points, task.points)
            # Majority rows come from the majority, the rest from the minority
            # or the method.
            majority, minority = rows[: out.n_majority], rows[out.n_majority :]
            assert ((0 <= majority) & (majority < task.n_majority)).all()
            assert ((minority >= task.n_majority) | (minority == -1)).all()


class TestPipeline:
    @pytest.mark.parametrize("first,second", itertools.product(PIPELINE_STAGES, repeat=2))
    def test_pair_matches_stage_by_stage_oracle(self, first, second):
        stages = (PIPELINE_STAGES[first], PIPELINE_STAGES[second])
        spec = ResampleSpec("pipeline", stages=stages)
        rng = np.random.default_rng(18)
        for seed in range(4):
            task = random_task(rng, 24, 7, 2, spread=1.0)
            expected = naive_pipeline(task, stages, seed)
            out = apply_resample(task, spec, seed=seed)
            assert out.majority.tobytes() == expected.majority.tobytes()
            assert out.minority.tobytes() == expected.minority.tobytes()
            # Its source rows name the original task's rows it kept or copied.
            rows = apply_resample(numbered(task), spec, seed=seed).source_rows
            kept = expected.points[rows >= 0]
            assert kept.tobytes() == task.points[rows[rows >= 0]].tobytes()

    def test_singleton_equals_direct_call(self):
        rng = np.random.default_rng(13)
        task = random_task(rng, 14, 5, 2)
        spec = ResampleSpec("smote", {"k": 2, "ratio": 1.0, "seed": 3})
        direct = np.vstack([task.minority, smote_synthetic(task, 2, 1.0, seed=3)])
        piped = apply_resample(task, ResampleSpec("pipeline", stages=(spec,)))
        np.testing.assert_array_equal(piped.minority, direct)
        np.testing.assert_array_equal(piped.majority, task.majority)

    def test_stl_majority_never_exceeds_smote_only(self):
        rng = np.random.default_rng(14)
        stl = ResampleSpec("pipeline", stages=(
            ResampleSpec("smote", {"k": 3, "ratio": 1.0}), ResampleSpec("tomek"),
        ))
        for seed in range(5):
            task = random_task(rng, 20, 6, 2, spread=1.0)
            out = apply_resample(task, stl, seed=seed)
            assert len(out.majority) <= task.n_majority
            assert len(out.minority) == task.n_majority  # smote balanced first

    def test_senn_matches_manual_two_step(self):
        rng = np.random.default_rng(15)
        task = random_task(rng, 18, 6, 2, spread=1.0)
        spec = ResampleSpec("pipeline", stages=(
            ResampleSpec("smote", {"k": 3, "ratio": 1.0}), ResampleSpec("enn", {"k": 3}),
        ))
        combined = apply_resample(task, spec, seed=41)

        # manual: smote with the pipeline's stage-0 derived seed, then enn
        from rbu.seeding import derive_seed

        grown = np.vstack([task.minority, smote_synthetic(task, 3, 1.0, seed=derive_seed(41, 0))])
        mid_task = make_task(task.majority, grown)
        cleaned = mid_task.majority[enn_kept_indices(mid_task, 3)]
        np.testing.assert_array_equal(combined.majority, cleaned)
        np.testing.assert_array_equal(combined.minority, grown)

    def test_empty_pipeline_rejected(self):
        task = make_task([[0.0], [1.0]], [[0.5]])
        with pytest.raises(ParameterError):
            apply_resample(task, ResampleSpec("pipeline", stages=()))


INDEX_FUNCTION_SPECS = {
    "rus_kept_indices": ResampleSpec("rus", {"ratio": 1.0}),
    "ros_picked_indices": ResampleSpec("ros", {"ratio": 1.0}),
    "smote_synthetic": ResampleSpec("smote", {"ratio": 1.0}),
    "enn_kept_indices": ResampleSpec("enn"),
    "renn_kept_indices": ResampleSpec("renn"),
    "tomek_kept_indices": ResampleSpec("tomek"),
    "near_miss_kept_indices": ResampleSpec("near_miss"),
    "rbu_kept_indices": ResampleSpec("rbu", {"gamma": 0.5, "ratio": 1.0}),
}


class TestSpecDispatch:
    def test_unknown_method(self):
        with pytest.raises(ParameterError, match="unknown"):
            ResampleSpec("madeup")

    def test_unexpected_params_rejected(self):
        task = make_task([[0.0], [1.0]], [[0.5]])
        with pytest.raises(ParameterError, match="unexpected"):
            apply_resample(task, ResampleSpec("rus", {"ratio": 1.0, "gamma": 2.0}), seed=0)

    def test_missing_required_param(self):
        task = make_task([[0.0], [1.0]], [[0.5]])
        with pytest.raises(ParameterError, match="requires"):
            apply_resample(task, ResampleSpec("rbu", {"ratio": 1.0}), seed=0)

    def test_parameters_checked_when_the_spec_is_built(self):
        with pytest.raises(ParameterError, match="unexpected"):
            ResampleSpec("smote", {"k": 3, "ratio": 1.0, "ratoi": 1.0})
        with pytest.raises(ParameterError, match="requires"):
            ResampleSpec("smote", {"k": 3})
        with pytest.raises(ParameterError, match="unexpected"):
            ResampleSpec("pipeline", {"ratio": 1.0}, stages=(ResampleSpec("tomek"),))

    @pytest.mark.parametrize("k", [2.7, True, "3", None, float("nan"), float("inf")])
    def test_k_must_be_integer_valued(self, k):
        with pytest.raises(ParameterError, match="integer"):
            ResampleSpec("enn", {"k": k})

    @pytest.mark.parametrize("name", ["ratio", "gamma"])
    @pytest.mark.parametrize("value", ["0.5", True, None, [1.0]])
    def test_ratio_and_gamma_must_be_real_numbers(self, name, value):
        # Accepted, a string ratio failed every run with a TypeError.
        params = {"gamma": 1.0, "ratio": 1.0, name: value}
        with pytest.raises(ParameterError, match=f"{name} must be a real number"):
            ResampleSpec("rbu", params)
        for number in (1, np.float64(0.5)):
            ResampleSpec("rbu", {**params, name: number})

    @pytest.mark.parametrize("seed", [-1, 1.5, 2.0, True, "3", np.int64(-2)])
    def test_bad_seed_refused(self, seed):
        # Passed on, -1 made numpy raise ValueError and 1.5 TypeError.
        task = random_task(np.random.default_rng(23), 8, 3, 2)
        for method, params in (("rus", {"ratio": 1.0}), ("tomek", {})):
            with pytest.raises(ParameterError, match="seed must be None or a non-negative integer"):
                apply_resample(task, ResampleSpec(method, params), seed=seed)
            with pytest.raises(ParameterError, match="seed must be None or a non-negative integer"):
                ResampleSpec(method, {**params, "seed": seed})

    @pytest.mark.parametrize("seed", [None, 0, np.int64(7), 2**63 - 1])
    def test_good_seeds_run(self, seed):
        task = random_task(np.random.default_rng(23), 8, 3, 2)
        out = apply_resample(task, ResampleSpec("rus", {"ratio": 1.0, "seed": seed}), seed=5)
        assert out.n_majority == out.n_minority == 3

    def test_integer_valued_float_k_runs_as_int_and_keeps_its_label(self):
        spec = ResampleSpec("smote", {"k": 5.0, "ratio": 1.0})
        assert spec.label == "smote(k=5.0, ratio=1.0)"
        task = random_task(np.random.default_rng(19), 14, 5, 2)
        out = apply_resample(task, spec, seed=2)
        synthetic = smote_synthetic(task, 5, 1.0, seed=2)
        np.testing.assert_array_equal(out.minority, np.vstack([task.minority, synthetic]))

    @pytest.mark.parametrize(
        "spec,expected",
        [
            (
                ResampleSpec("rus", {"ratio": 0.5}),
                lambda t: (t.majority[rus_kept_indices(t, 0.5, 3)], t.minority),
            ),
            (
                ResampleSpec("ros", {"ratio": 1.0}),
                lambda t: (
                    t.majority,
                    np.vstack([t.minority, t.minority[ros_picked_indices(t, 1.0, 3)]]),
                ),
            ),
            (
                ResampleSpec("smote", {"ratio": 1.0}),
                lambda t: (t.majority, np.vstack([t.minority, smote_synthetic(t, 5, 1.0, 3)])),
            ),
            (ResampleSpec("enn"), lambda t: (t.majority[enn_kept_indices(t, 3)], t.minority)),
            (ResampleSpec("renn"), lambda t: (t.majority[renn_kept_indices(t, 3)], t.minority)),
            (ResampleSpec("tomek"), lambda t: (t.majority[tomek_kept_indices(t)], t.minority)),
            (
                ResampleSpec("near_miss"),
                lambda t: (t.majority[near_miss_kept_indices(t, 3, 1.0)], t.minority),
            ),
            (
                ResampleSpec("rbu", {"gamma": 0.5, "ratio": 1.0}),
                lambda t: (rbu_undersample(t, RbuParams(0.5, 1.0)), t.minority),
            ),
        ],
        ids=["rus", "ros", "smote", "enn", "renn", "tomek", "near_miss", "rbu"],
    )
    def test_runs_the_point_level_function_with_defaults(self, spec, expected):
        task = random_task(np.random.default_rng(21), 20, 8, 2, spread=1.0)
        out = apply_resample(task, spec, seed=3)
        majority, minority = expected(task)
        np.testing.assert_array_equal(out.majority, majority)
        np.testing.assert_array_equal(out.minority, minority)

    def test_pipeline_seed_pins_its_stages(self):
        task = random_task(np.random.default_rng(22), 16, 5, 2)
        stages = (ResampleSpec("rus", {"ratio": 1.0}),)
        pinned = ResampleSpec("pipeline", {"seed": 4}, stages=stages)
        out = apply_resample(task, pinned, seed=99)
        expected = apply_resample(task, ResampleSpec("pipeline", stages=stages), seed=4)
        np.testing.assert_array_equal(out.majority, expected.majority)

    @pytest.mark.parametrize("function", sorted(INDEX_FUNCTION_SPECS))
    def test_index_function_looked_up_on_the_module_when_run(self, monkeypatch, function):
        # Replacing the module attribute (as a span tracer does) must reach specs.
        calls = []
        original = getattr(baselines, function)

        def recorded(*args, **kwargs):
            calls.append(function)
            return original(*args, **kwargs)

        monkeypatch.setattr(baselines, function, recorded)
        task = random_task(np.random.default_rng(23), 20, 8, 2, spread=1.0)
        apply_resample(task, INDEX_FUNCTION_SPECS[function], seed=1)
        assert calls

    def test_none_is_identity(self):
        rng = np.random.default_rng(16)
        task = random_task(rng, 9, 4, 2)
        out = apply_resample(task, ResampleSpec("none"), seed=0)
        np.testing.assert_array_equal(out.majority, task.majority)
        np.testing.assert_array_equal(out.minority, task.minority)

    @pytest.mark.parametrize("ratio", [0.5, 1.0])
    @pytest.mark.parametrize("method", ["rus", "ros", "smote", "near_miss", "rbu"])
    def test_minority_not_smaller_leaves_the_task_unchanged(self, method, ratio):
        # A method's ratio is a share of the majority excess, and a task whose
        # minority outnumbers its majority has none.
        task = numbered(random_task(np.random.default_rng(18), 5, 6, 2, spread=1.0))
        args = {"ratio": ratio, "gamma": 1.0} if method == "rbu" else {"ratio": ratio}
        out = apply_resample(task, ResampleSpec(method, args), seed=0)
        assert out.n_majority == task.n_majority
        assert out.points.tobytes() == task.points.tobytes()
        np.testing.assert_array_equal(out.source_rows, task.source_rows)

    def test_spec_seed_takes_precedence(self):
        rng = np.random.default_rng(17)
        task = random_task(rng, 16, 5, 2)
        pinned = apply_resample(task, ResampleSpec("rus", {"ratio": 1.0, "seed": 4}), seed=99)
        direct = task.majority[rus_kept_indices(task, 1.0, seed=4)]
        np.testing.assert_array_equal(pinned.majority, direct)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=20),
    st.integers(min_value=2, max_value=8),
    st.sampled_from(["rus", "enn", "renn", "tomek", "near_miss", "rbu"]),
    st.integers(min_value=0, max_value=1000),
)
def test_undersamplers_select_subsets_and_leave_minority(extra, n_min, method, seed):
    rng = np.random.default_rng(seed)
    task = random_task(rng, n_min + extra, n_min, 2, spread=1.0)
    params = {
        "rus": {"ratio": 1.0},
        "enn": {"k": 3},
        "renn": {"k": 3},
        "tomek": {},
        "near_miss": {"k": 2, "ratio": 1.0},
        "rbu": {"gamma": 0.5, "ratio": 1.0},
    }[method]
    out = apply_resample(task, ResampleSpec(method, params), seed=seed)
    rows = {tuple(r) for r in task.majority}
    assert all(tuple(r) in rows for r in out.majority)
    np.testing.assert_array_equal(out.minority, task.minority)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=3, max_value=20),
    st.integers(min_value=2, max_value=8),
    st.sampled_from(["ros", "smote"]),
    st.integers(min_value=0, max_value=1000),
)
def test_oversamplers_extend_minority_and_leave_majority(extra, n_min, method, seed):
    rng = np.random.default_rng(seed)
    task = random_task(rng, n_min + extra, n_min, 2, spread=1.0)
    params = {"ratio": 1.0} if method == "ros" else {"k": 3, "ratio": 1.0}
    out = apply_resample(task, ResampleSpec(method, params), seed=seed)
    np.testing.assert_array_equal(out.majority, task.majority)
    np.testing.assert_array_equal(out.minority[: task.n_minority], task.minority)
    assert len(out.minority) == task.n_majority


def synthetic_count(task, spec, seed):
    """The points the SMOTE stages of ``spec`` add to ``task``, from the
    sizes of each stage's input and output."""
    pipeline = spec.method == "pipeline"
    count = 0
    for i, stage in enumerate(spec.stages if pipeline else (spec,)):
        out = apply_resample(task, stage, seed=derive_seed(seed, i) if pipeline else seed)
        if stage.method == "smote":
            count += len(out.points) - len(task.points)
        task = out
    return count


@settings(derandomize=True, deadline=None)
@given(
    rows_with_minority(  # minority rows anywhere in the file
        st.tuples(
            st.integers(-3, 3),  # repeated values make distance ties
            st.floats(-10, 10, allow_nan=False),
        )
    ),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.integers(1, 4),
    st.integers(0, 2**32),
)
def test_source_rows_name_the_standardized_dataset_rows(rows, ratio, k, seed):
    text = "x,y,class\n" + "".join(
        f"{x},{y!r},{'pos' if minority else 'neg'}\n" for x, y, minority in rows
    )
    encoded = encode_categoricals(parse_csv(text))
    standardized = apply_standardizer(fit_standardizer(encoded), encoded)
    task = split_binary(standardized, "pos")
    bare = BinaryTask(task.majority, task.minority, task.minority_label, task.majority_label)
    shared = {}  # one dict for every spec, as in an inner fold
    for name in RESAMPLE_NAMES:
        spec = resample_spec(name, ratio, k)
        try:
            out = apply_resample(task, spec, seed=seed)
        except ParameterError:
            continue  # the method refuses this task
        source = out.source_rows
        made = source == -1
        assert len(source) == len(out.points) and (made | (source >= 0)).all()
        assert out.points[~made].tobytes() == standardized.features[source[~made]].tobytes()
        assert not made[: out.n_majority].any()
        assert (standardized.labels[source[: out.n_majority]] == "neg").all()
        minority = source[out.n_majority :][~made[out.n_majority :]]
        assert (standardized.labels[minority] == "pos").all()
        assert np.count_nonzero(made) == synthetic_count(task, spec, seed)

        reused = apply_resample(task, spec, seed=seed, shared=shared)
        assert reused.points.tobytes() == out.points.tobytes()
        assert reused.n_majority == out.n_majority
        np.testing.assert_array_equal(reused.source_rows, source)

        unnumbered = apply_resample(bare, spec, seed=seed)
        assert unnumbered.source_rows is None
        assert unnumbered.points.tobytes() == out.points.tobytes()
