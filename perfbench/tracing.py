"""In-memory span tracer patched onto the library's module boundaries.

The library carries no tracing of its own.  ``install`` replaces, from
outside, the names each caller looks up (``rbu.evaluation.apply_resample``,
``rbu.radial.init_field``, the classifiers' ``fit``/``score_samples`` and so
on) with wrappers that record a span per call: name, start, end, parent and
whether it raised.  ``layer_metrics`` turns the spans of one or more traced
passes into the per-layer figures the benchmark reports.

Times are self times (span duration minus what its child spans cover)
unless a metric says otherwise, so the layer times of one pass add up to no
more than the pass's wall time.
"""

from __future__ import annotations

import functools
import json
import time

# Per-layer metrics, in report order, with their units.
LAYER_METRICS = {
    "potential.init_field_s": "s",
    "potential.init_field_calls": "count",
    "potential.rbf_evals": "count",
    "potential.bytes_computed": "bytes",
    "radial.greedy_s": "s",
    "radial.greedy_runs": "count",
    "radial.steps": "count",
    "radial.step_us": "us",
    "baselines.resample_s": "s",
    "baselines.calls": "count",
    "baselines.rus_s": "s",
    "baselines.ros_s": "s",
    "baselines.smote_s": "s",
    "baselines.enn_s": "s",
    "baselines.renn_s": "s",
    "baselines.tomek_s": "s",
    "baselines.near_miss_s": "s",
    "baselines.distance_entries": "count",
    "modeling.fit_s": "s",
    "modeling.score_s.knn": "s",
    "modeling.score_s.gnb": "s",
    "modeling.metrics_s": "s",
    "modeling.calls": "count",
    "evaluation.select_params_s": "s",
    "evaluation.select_params_share": "ratio",
    "evaluation.inner_evals": "count",
    "evaluation.outer_fits": "count",
    "evaluation.useful_ratio": "ratio",
    "evaluation.inner_failures": "count",
    "evaluation.pool_busy_ratio": "ratio",
    "dataio.parse_s": "s",
    "dataio.serialize_s": "s",
    "dataio.standardize_s": "s",
    "dataio.rows_parsed": "count",
    "minority.categorize_s": "s",
    "cli.rebuild_s": "s",
    "cli.command_s.stats": "s",
    "cli.command_s.typify": "s",
    "cli.command_s.resample": "s",
    "cli.command_s.sweep": "s",
    "trace.overhead_ratio": "ratio",
}

BASELINE_METHODS = ("rus", "ros", "smote", "enn", "renn", "tomek", "near_miss")


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "error", "attrs")

    def __init__(self, span_id, parent, name, start, end=None, error=False, attrs=None):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = end
        self.error = error
        self.attrs = attrs or {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of one thread in memory; ``patch`` installs wrappers."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._clock = clock
        self._stack: list[Span] = []
        self._patches = []

    def _open(self, name) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, self._clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = self._clock()
        self._stack.pop()

    def call(self, name, fn, *args, attrs=None, **kwargs):
        """Run ``fn`` inside a span named ``name``; ``attrs(args, kwargs,
        result)`` may attach numbers derived from the arguments and result."""
        span = self._open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.error = True
            raise
        finally:
            self._close(span)
        if attrs is not None:
            span.attrs = attrs(args, kwargs, result)
        return result

    def wrap(self, name, fn, attrs=None):
        """``fn`` recording a span per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, attrs=attrs, **kwargs)

        return traced

    def patch(self, owner, attr, name, attrs=None) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, attrs))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            for s in self.spans:
                handle.write(
                    json.dumps([s.id, s.parent, s.name, s.start, s.end, s.error, s.attrs])
                    + "\n"
                )


# ---------------------------------------------------------------------------
# What gets patched


def _task_arg(args, kwargs):
    return args[0] if args else kwargs["task"]


def _task_sizes(args, kwargs, result):
    task = _task_arg(args, kwargs)
    return {"n_maj": task.n_majority, "n_min": task.n_minority, "m": task.m}


def _removal_steps(args, kwargs, result):
    return {"steps": len(result), "n_maj": _task_arg(args, kwargs).n_majority}


def _distance_entries(count):
    def attrs(args, kwargs, result):
        task = _task_arg(args, kwargs)
        return {"distances": count(task.n_majority, task.n_minority, result)}

    return attrs


# cdist sizes of each resampler, from the task it is given.
_METHOD_DISTANCES = {
    "rus": lambda a, b, r: 0,
    "ros": lambda a, b, r: 0,
    "smote": lambda a, b, r: b * b if len(r) else 0,
    "enn": lambda a, b, r: a * (a + b),
    "renn": lambda a, b, r: 0,  # its ENN passes are spans of their own
    "tomek": lambda a, b, r: (a + b) ** 2 if a + b >= 2 else 0,
    "near_miss": lambda a, b, r: a * b,
}
_METHOD_FUNCTIONS = {
    "rus": "rus_kept_indices",
    "ros": "ros_picked_indices",
    "smote": "smote_synthetic",
    "enn": "enn_kept_indices",
    "renn": "renn_kept_indices",
    "tomek": "tomek_kept_indices",
    "near_miss": "near_miss_kept_indices",
}


def _rows(args, kwargs, result):
    return {"rows": result.n}


def install(tracer: Tracer) -> None:
    """Patch every traced boundary; ``tracer.unpatch()`` restores them."""
    from rbu import baselines, cli, dataio, evaluation, minority, modeling, radial

    patch = tracer.patch
    patch(radial, "init_field", "potential.init_field", _task_sizes)
    patch(radial, "rbu_removal_order", "radial.rbu_removal_order", _removal_steps)
    for method, function in _METHOD_FUNCTIONS.items():
        patch(baselines, function, f"baselines.{method}",
              _distance_entries(_METHOD_DISTANCES[method]))
    patch(evaluation, "apply_resample", "baselines.resample")
    patch(cli, "apply_resample_detail", "baselines.resample")
    for cls, short in ((modeling.KnnClassifier, "knn"), (modeling.GaussianNbClassifier, "gnb")):
        patch(cls, "fit", "modeling.fit")
        patch(cls, "score_samples", f"modeling.score.{short}")
    patch(evaluation, "compute_metrics", "modeling.metrics")
    patch(evaluation, "select_params", "evaluation.select_params")
    patch(cli, "run_experiment", "evaluation.run_experiment")
    for name in ("parse_keel", "parse_csv"):
        patch(cli, name, "dataio.parse", _rows)
    for name in ("serialize_keel", "serialize_csv"):
        patch(cli, name, "dataio.serialize")
    for module in (cli, minority):
        patch(module, "fit_standardizer", "dataio.standardize")
        patch(module, "apply_standardizer", "dataio.standardize")
        patch(module, "categorize_minority", "minority.categorize")
    patch(evaluation, "fit_standardizer", "dataio.standardize")
    patch(dataio.Standardizer, "transform", "dataio.standardize")
    patch(evaluation, "categorize_minority", "minority.categorize")
    patch(cli, "rebuild_dataset", "cli.rebuild")


# ---------------------------------------------------------------------------
# From spans to metrics


def covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - covered(children.get(s.id, ()), s.start, s.end) for s in spans
    }


def layer_metrics(spans, passes: int, traced_wall: float) -> dict:
    """Per-pass layer figures from the spans of ``passes`` traced passes.

    ``traced_wall`` is the median wall time of one traced pass.  Pool and
    overhead ratios need untraced passes and are filled in by the caller.
    """
    own = self_times(spans)
    by_id = {s.id: s for s in spans}

    def parent_name(s):
        return by_id[s.parent].name if s.parent is not None else None

    def self_sum(*names):
        return sum(own[s.id] for s in spans if s.name in names)

    def inclusive(name):
        return sum(s.duration for s in spans if s.name == name)

    def count(name):
        return sum(1 for s in spans if s.name == name)

    def attr_sum(name, weight):
        return sum(weight(s.attrs) for s in spans if s.name == name and s.attrs)

    method_names = {f"baselines.{m}" for m in BASELINE_METHODS}

    def inside_method(s):
        ancestor = s.parent
        while ancestor is not None:
            if by_id[ancestor].name in method_names:
                return True
            ancestor = by_id[ancestor].parent
        return False

    def outermost_method(name):
        # A method's time includes methods nested inside it (RENN's ENN
        # passes); a method nested in another method counts for the outer one.
        return sum(s.duration for s in spans if s.name == name and not inside_method(s))

    resample = [s for s in spans if s.name == "baselines.resample"]
    inner = [s for s in resample if parent_name(s) == "evaluation.select_params"]
    outer = [s for s in resample if parent_name(s) == "evaluation.run_experiment"]
    init_evals = attr_sum("potential.init_field",
                          lambda a: a["n_maj"] * (a["n_maj"] + a["n_min"]))
    init_bytes = attr_sum("potential.init_field",
                          lambda a: 8 * a["n_maj"] * (a["n_maj"] + a["n_min"]) * (a["m"] + 2))
    step_evals = attr_sum("radial.rbu_removal_order", lambda a: a["steps"] * a["n_maj"])
    steps = attr_sum("radial.rbu_removal_order", lambda a: a["steps"])
    greedy_s = self_sum("radial.rbu_removal_order")
    modeling_calls = sum(1 for s in spans if s.name.startswith("modeling."))
    fits = len(inner) + len(outer)

    totals = {
        "potential.init_field_s": self_sum("potential.init_field"),
        "potential.init_field_calls": count("potential.init_field"),
        # One RBF evaluation per (query, point) pair in init_field and per
        # surviving majority point in each greedy step.
        "potential.rbf_evals": init_evals + step_evals,
        # float64 intermediates: difference vector, squared distance and
        # exponential per init_field pair; squared distance and exponential
        # per greedy-step entry (the dot-product identity needs no difference).
        "potential.bytes_computed": init_bytes + 16 * step_evals,
        "radial.greedy_s": greedy_s,
        "radial.greedy_runs": sum(
            1 for s in spans if s.name == "radial.rbu_removal_order" and s.attrs.get("steps")
        ),
        "radial.steps": steps,
        "baselines.resample_s": self_sum("baselines.resample"),
        "baselines.calls": len(resample),
        "baselines.distance_entries": sum(
            s.attrs.get("distances", 0) for s in spans if s.name.startswith("baselines.")
        ),
        "modeling.fit_s": self_sum("modeling.fit"),
        "modeling.score_s.knn": self_sum("modeling.score.knn"),
        "modeling.score_s.gnb": self_sum("modeling.score.gnb"),
        "modeling.metrics_s": self_sum("modeling.metrics"),
        "modeling.calls": modeling_calls,
        "evaluation.select_params_s": self_sum("evaluation.select_params"),
        "evaluation.inner_evals": len(inner),
        "evaluation.outer_fits": len(outer),
        "evaluation.inner_failures": sum(
            1 for s in spans if s.error and parent_name(s) == "evaluation.select_params"
        ),
        "dataio.parse_s": self_sum("dataio.parse"),
        "dataio.serialize_s": self_sum("dataio.serialize"),
        "dataio.standardize_s": self_sum("dataio.standardize"),
        "dataio.rows_parsed": attr_sum("dataio.parse", lambda a: a["rows"]),
        "minority.categorize_s": self_sum("minority.categorize"),
        "cli.rebuild_s": self_sum("cli.rebuild"),
    }
    for method in BASELINE_METHODS:
        totals[f"baselines.{method}_s"] = outermost_method(f"baselines.{method}")
    for command in ("stats", "typify", "resample", "sweep"):
        totals[f"cli.command_s.{command}"] = inclusive(f"cli.command.{command}")

    metrics = {name: value / passes for name, value in totals.items()}
    metrics["radial.step_us"] = 1e6 * greedy_s / steps if steps else 0.0
    metrics["evaluation.useful_ratio"] = len(outer) / fits if fits else 0.0
    metrics["evaluation.select_params_share"] = (
        inclusive("evaluation.select_params") / passes / traced_wall if traced_wall else 0.0
    )
    return metrics
