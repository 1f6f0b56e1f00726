"""``run_grid`` against one-spec runs and the naive oracles, for every method
of the table and both pipelines.

A grid's specs differ in k and ratio, so pipelines clean SMOTE outputs of
unequal sizes in one batch, and grids may hold a spec the method refuses.
``--hypothesis-profile=ci`` runs these properties with ten times the default
number of examples.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbu import ParameterError, ResampleSpec, apply_resample, baselines
from rbu.baselines import METHODS, run_grid
from rbu.evaluation import inner_scores
from rbu.grids import named_specs
from rbu.seeding import derive_seed

from oracles import (
    RESAMPLE_NAMES,
    argsort_smote_synthetic,
    make_task,
    naive_pipeline,
    naive_renn_kept,
    naive_tomek_kept,
    numbered,
    resample_spec,
)


@st.composite
def tasks(draw):
    """Small imbalanced tasks on an integer grid (distance ties), some rows
    repeated, numbered so that results name the rows they keep.  Few
    minority rows make many SMOTE points, which crowd each other and the
    majority rows, so that cleaning decides between added rows."""
    m = draw(st.integers(1, 3))
    n_majority = draw(st.integers(2, 16))
    n_minority = draw(st.integers(1, max(1, n_majority // 3)))
    coordinates = st.lists(st.integers(-3, 3), min_size=m, max_size=m)
    rows = draw(st.lists(coordinates, min_size=n_majority + n_minority,
                         max_size=n_majority + n_minority))
    index = st.sampled_from(range(len(rows)))
    for _ in range(draw(st.integers(0, 3))):  # duplicate rows, within or across classes
        target = draw(index)
        rows[target] = rows[draw(index)]
    return numbered(make_task(rows[:n_majority], rows[n_majority:]))


# (k, ratio) per grid point: k 0 and a ratio beyond 1 are refused by the
# methods that take them, and ratios make outputs of unequal sizes.
grid_points = st.lists(
    st.tuples(st.sampled_from([0, 1, 2, 3, 5]), st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5])),
    min_size=1,
    max_size=5,
)


def outcome(run):
    try:
        return run()
    except ParameterError as error:
        return error


def assert_same(got, want):
    if isinstance(want, ParameterError):
        assert isinstance(got, ParameterError) and str(got) == str(want)
        return
    assert not isinstance(got, ParameterError), got
    assert got.points.tobytes() == want.points.tobytes()
    assert got.n_majority == want.n_majority
    np.testing.assert_array_equal(got.source_rows, want.source_rows)


def kept_rows(result):
    """The input rows a result keeps of its input's majority."""
    return result.source_rows[: result.n_majority].tolist()


def check_oracle(name, task, spec, seed, result):
    """``result`` of ``spec`` on ``task`` against the naive oracle of its
    method, where one exists."""
    if isinstance(result, ParameterError):
        return
    args = spec.args if spec.method != "pipeline" else {}
    if name == "smote":
        want = argsort_smote_synthetic(task.majority, task.minority, args["k"], args["ratio"], seed)
        assert result.points[len(task.points) :].tobytes() == want.tobytes()
    elif name == "tomek":
        assert kept_rows(result) == naive_tomek_kept(task.majority, task.minority)
    elif name == "renn":
        assert kept_rows(result) == naive_renn_kept(task.majority, task.minority, args["k"])[0]
    elif name in ("stl", "senn", "pipeline"):
        assert_same(result, naive_pipeline(task, spec.stages, seed))
        if name == "stl":
            first = apply_resample(task, spec.stages[0], seed=derive_seed(seed, 0))
            assert kept_rows(result) == naive_tomek_kept(first.majority, first.minority)


@settings(derandomize=True, deadline=None)
@given(tasks(), grid_points, st.integers(0, 2**32), st.booleans())
def test_grid_equals_one_spec_runs_and_oracles(task, points, seed, with_shared):
    for name in RESAMPLE_NAMES:
        specs = [resample_spec(name, ratio, k) for k, ratio in points]
        seeds = [seed + i for i in range(len(specs))]
        shared = {} if with_shared else None
        got = run_grid(task, specs, seeds, shared)
        assert len(got) == len(specs)
        for spec, i_seed, result in zip(specs, seeds, got):
            assert_same(result, outcome(lambda: apply_resample(task, spec, seed=i_seed)))
            check_oracle(name, task, spec, i_seed, result)
        if with_shared:
            # A second grid on the same task reuses what the first kept.
            again = run_grid(task, specs[::-1], seeds[::-1], shared)
            for result, want in zip(again, got[::-1]):
                assert_same(result, want)


@settings(derandomize=True, deadline=None)
@given(tasks(), st.integers(0, 2**32))
def test_pipeline_grid_mixes_stl_and_senn(task, seed):
    # One pipeline grid cleans its Tomek and its ENN stages as two batches.
    axes = {"k": [1, 3, 5], "ratio": [0.25, 0.5, 1.0]}
    specs = named_specs("stl", axes, 3) + named_specs("senn", axes, 3)
    seeds = [seed ^ i for i in range(len(specs))]
    for shared in (None, {}):
        got = run_grid(task, specs, seeds, shared)
        for spec, i_seed, result in zip(specs, seeds, got):
            assert_same(result, outcome(lambda: naive_pipeline(task, spec.stages, i_seed)))


@settings(derandomize=True, deadline=None)
@given(tasks(), grid_points, st.integers(0, 2**32))
def test_planned_calls_equal_unplanned_ones(task, points, seed):
    # Every name's grid planned at once, one spec planned twice with the same
    # seed, and the calls made in reverse order.
    specs = [resample_spec(name, ratio, k) for name in RESAMPLE_NAMES for k, ratio in points]
    seeds = [seed + i for i in range(len(specs))]
    specs.append(specs[0])
    seeds.append(seeds[0])
    shared = {}
    baselines.plan_grid(specs, seeds, shared)
    for spec, i_seed in reversed(list(zip(specs, seeds))):
        got = outcome(lambda: apply_resample(task, spec, seed=i_seed, shared=shared))
        assert_same(got, outcome(lambda: apply_resample(task, spec, seed=i_seed)))
    assert not shared[baselines._PLANNED]


def test_plan_runs_one_grid_per_kind_and_fails_it_whole(monkeypatch):
    task = numbered(make_task(np.arange(24.0).reshape(12, 2), [[3.0, 4.5], [9.0, 9.5], [1.0, 0.0]]))
    axes = {"k": [1, 3], "ratio": [0.5, 1.0]}
    grids = {name: named_specs(name, axes, 3) for name in ("smote", "stl", "senn")}
    grids["rus"] = named_specs("rus", {"ratio": [0.5, 1.0]}, 3)
    planned = [(spec, i) for grid in grids.values() for i, spec in enumerate(grid)]
    want = [apply_resample(task, spec, seed=i) for spec, i in planned if spec.method != "rus"]
    calls = []
    original = baselines.run_grid

    def counted(task, specs, seeds, shared=None):
        calls.append((specs[0].method, len(specs)))
        return original(task, specs, seeds, shared)

    def broken(task, ratio, seed):
        raise RuntimeError("rus broke")

    monkeypatch.setattr(baselines, "run_grid", counted)
    monkeypatch.setattr(baselines, "rus_kept_indices", broken)
    shared = {}
    baselines.plan_grid(*zip(*planned), shared)
    got = []
    for spec, i_seed in planned:
        if spec.method == "rus":
            with pytest.raises(RuntimeError, match="rus broke"):
                apply_resample(task, spec, seed=i_seed, shared=shared)
        else:
            got.append(apply_resample(task, spec, seed=i_seed, shared=shared))
    for result, expected in zip(got, want, strict=True):
        assert_same(result, expected)
    # One grid per kind, stl and senn apart (each runs its SMOTE stages as a
    # grid of its own), and none for the calls after each grid's first.
    assert calls == [("smote", 4), ("pipeline", 4), ("smote", 4), ("pipeline", 4), ("smote", 4),
                     ("rus", 2)]


@pytest.mark.parametrize("block", [None, 3 * 40**2, 40**2, 1])
@pytest.mark.parametrize("scale", [1.0, 1e200])
def test_cleaning_batch_sizes_and_overflowing_distances(block, scale, monkeypatch):
    # Batches of a few outputs, of one, and none (the task alone passes the
    # block); at 1e200 distances overflow to infinity and tie.
    if block is not None:
        monkeypatch.setattr(baselines, "_BLOCK", block)
    rng = np.random.default_rng(71)
    task = numbered(make_task(rng.integers(-3, 4, size=(20, 2)) * scale,
                              rng.integers(-3, 4, size=(4, 2)) * scale))
    axes = {"k": [1, 3], "ratio": [0.25, 0.5, 1.0]}
    specs = named_specs("stl", axes, 3) + named_specs("senn", axes, 3)
    got = run_grid(task, specs, list(range(len(specs))), {})
    for seed, (spec, result) in enumerate(zip(specs, got)):
        assert_same(result, outcome(lambda: naive_pipeline(task, spec.stages, seed)))


@pytest.mark.parametrize("name", sorted(METHODS))
def test_every_method_has_a_grid_form(name):
    task = numbered(make_task([[0.0], [1.0], [2.0], [4.0], [5.0]], [[3.0], [3.5]]))
    (spec,) = [resample_spec(name, 1.0, 1)]
    (result,) = run_grid(task, [spec], [7])
    assert_same(result, apply_resample(task, spec, seed=7))


def test_grid_holds_one_method():
    task = make_task([[0.0], [1.0], [2.0]], [[3.0]])
    with pytest.raises(ParameterError, match="one method"):
        run_grid(task, [ResampleSpec("none"), ResampleSpec("tomek")], [0, 0])


def test_refused_spec_leaves_the_other_grid_points_scored():
    rng = np.random.default_rng(70)
    features = np.vstack([rng.normal(0, 1, (36, 2)), rng.normal(1, 1, (12, 2))])
    labels = np.array([0] * 36 + [1] * 12)
    for name in ("smote", "stl"):
        grid = named_specs(name, {"k": [1, 3], "ratio": [1.0]}, 3)
        (refused,) = named_specs(name, {"k": [0], "ratio": [1.0]}, 3)
        alone = inner_scores(features, labels, [(grid, "knn", 5)], plan_seed=3)[0]
        mixed = inner_scores(features, labels, [(grid + [refused], "knn", 5)], plan_seed=3)[0]
        assert (alone > 0).all()
        np.testing.assert_array_equal(mixed[:2], alone)
        np.testing.assert_array_equal(mixed[2], np.zeros(alone.shape[1]))
