"""Tests of the benchmark itself: span arithmetic, failure counting and the
call counts of the traced sweep.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, covered, layer_metrics, self_times  # noqa: E402


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered([(1, 4), (3, 6)], 0, 10) == 5
    assert covered([(-2, 1), (9, 12)], 0, 10) == 2
    assert covered([(2, 3), (2, 3)], 0, 10) == 1
    assert covered([], 0, 10) == 0


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        Span(0, None, "root", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 4.0),
        Span(2, 1, "a.child", 2.0, 3.0),
        Span(3, 0, "b", 3.0, 6.0),  # overlaps a: the union is what counts
        Span(4, 0, "c", 9.0, 10.0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 10 - 5 - 1, 1: 2.0, 2: 1.0, 3: 3.0, 4: 1.0})


def test_layer_metrics_split_rbu_and_nest_enn_inside_renn():
    task = {"n_maj": 6, "n_min": 2, "m": 3}
    spans = [
        Span(0, None, "radial.rbu_removal_order", 0.0, 5.0, attrs={"steps": 4, "n_maj": 6}),
        Span(1, 0, "potential.init_field", 0.5, 3.5, attrs=task),
        Span(2, None, "baselines.resample", 5.0, 9.0),
        Span(3, 2, "baselines.renn", 5.5, 8.5),
        Span(4, 3, "baselines.enn", 6.0, 7.0, attrs={"distances": 48}),
        Span(5, 3, "baselines.enn", 7.0, 8.0, attrs={"distances": 30}),
        Span(6, None, "baselines.enn", 9.0, 9.5, attrs={"distances": 48}),
    ]
    m = layer_metrics(spans, passes=1, traced_wall=10.0)
    assert m["potential.init_field_s"] == pytest.approx(3.0)
    assert m["radial.greedy_s"] == pytest.approx(2.0)
    assert m["radial.steps"] == 4
    assert m["radial.step_us"] == pytest.approx(0.5e6)
    assert m["potential.rbf_evals"] == 6 * 8 + 4 * 6
    assert m["potential.bytes_computed"] == 8 * 6 * 8 * 5 + 16 * 4 * 6
    assert m["baselines.renn_s"] == pytest.approx(3.0)
    assert m["baselines.enn_s"] == pytest.approx(0.5)  # nested passes belong to RENN
    assert m["baselines.resample_s"] == pytest.approx(1.0)
    assert m["baselines.distance_entries"] == 126
    halved = layer_metrics(spans, passes=2, traced_wall=10.0)
    assert halved["radial.steps"] == 2


def test_tracer_records_parents_errors_and_restores_patches():
    import types

    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    module = types.SimpleNamespace()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    def outer(x):
        return module.inner(x) + 1

    module.inner, module.outer = inner, outer
    tracer.patch(module, "inner", "layer.inner")
    tracer.patch(module, "outer", "layer.outer")
    assert module.outer(1) == 2
    with pytest.raises(ValueError):
        module.outer(-1)
    tracer.unpatch()
    assert module.inner is inner and module.outer is outer
    names = [(s.name, s.parent, s.error) for s in tracer.spans]
    assert names == [
        ("layer.outer", None, False),
        ("layer.inner", 0, False),
        ("layer.outer", None, True),
        ("layer.inner", 2, True),
    ]


def test_a_forced_digest_mismatch_raises_failed_ratio():
    good = workloads.Checker()
    good.digest("report.json", b"report")
    assert (good.failed, good.failed_ratio, good.correct) == (0, 0.0, True)

    forced = workloads.Checker(golden={"report.json": "0" * 64})
    forced.digest("report.json", b"report")
    assert forced.failed == 1 and forced.failed_ratio > 0
    assert not forced.correct


def test_a_digest_that_changes_between_passes_fails():
    checker = workloads.Checker()
    checker.digest("order", b"first")
    checker.digest("order", b"second")
    assert checker.failed == 1 and not checker.correct


def test_each_operation_counts_once_per_run_whatever_the_passes():
    one, three = workloads.Checker(), workloads.Checker()
    for checker, passes in ((one, 1), (three, 3)):
        for _ in range(passes):
            checker.check("fold 0", True)
            checker.check("oracle shifted", False, "differs", known_defect="open")
            checker.digest("order", b"same")
    assert (one.attempted, one.failed) == (three.attempted, three.failed) == (3, 1)
    assert len(three.problems) == 1


def test_known_defect_counts_as_failed_but_keeps_correct():
    checker = workloads.Checker()
    checker.check("oracle shifted", False, "differs", known_defect="uncentred subtract")
    assert checker.failed == 1 and checker.failed_ratio == 1.0
    assert checker.correct


def test_sweep_final_counts(tmp_path):
    """paper-final: 75 selectable grid points x 6 inner folds x 10 outer folds
    x 2 classifiers = 9,000 inner evaluations, and 11 methods x 10 folds x 2
    classifiers = 220 outer fits, per dataset."""
    workload = workloads.WORKLOADS["sweep-final"]
    inputs = workload.prepare(workloads.DEFAULT_SEED, tmp_path)
    checker = workloads.Checker(workloads.load_golden("sweep-final", workloads.DEFAULT_SEED))
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        outputs = workload.run_pass(inputs, checker, tracer)
    finally:
        tracer.unpatch()
    workload.check(inputs, outputs, checker)
    assert checker.failed == 0, checker.problems
    metrics = layer_metrics(tracer.spans, passes=1, traced_wall=1.0)
    datasets = len(workload.datasets)
    assert metrics["evaluation.inner_evals"] == 9000 * datasets
    assert metrics["evaluation.outer_fits"] == 220 * datasets
    assert metrics["evaluation.inner_failures"] == 0
