"""Reference resamplers: random under/oversampling, SMOTE, neighborhood
cleaners, NearMiss-1, and pipeline composition for the combined methods.

Undersamplers only ever select a subset of the majority set; oversamplers
only ever extend the minority set.  Every stochastic method is a pure
function of (task, params, seed).

Cleaning here is one-sided: ENN, RENN and Tomek-link removal drop majority
points only, which is how they are used as undersamplers in imbalanced
pipelines (SMOTE+Tomek, SMOTE+ENN).
"""

from __future__ import annotations

import numbers
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from . import radial
from .dataio import BinaryTask
from .errors import ParameterError
from .neighbors import distance_blocks, nearest_neighbors
from .potential import TIE_LOWEST_INDEX
from .radial import RbuParams, rbu_kept_indices, removal_count
from .seeding import derive_seed

RENN_MAX_PASSES = 100

# Marks a parameter that a spec must give: it has no default.
REQUIRED = object()


@dataclass(frozen=True)
class ResampleSpec:
    """Method identifier plus its hyperparameters; pipelines carry stages.

    The parameters are checked against the method's schema when the spec is
    built.  ``seed``, which every method accepts, pins the random stream.
    """

    method: str
    params: dict = field(default_factory=dict)
    stages: tuple["ResampleSpec", ...] = ()

    def __post_init__(self):
        if self.method not in METHODS:
            raise ParameterError(f"unknown resampling method {self.method!r}")
        if self.method == "pipeline" and not self.stages:
            raise ParameterError("pipeline spec needs at least one stage")
        schema = METHODS[self.method].params
        extras = sorted(set(self.params) - set(schema) - {"seed"})
        if extras:
            raise ParameterError(f"unexpected parameters for {self.method}: {extras}")
        for name, default in schema.items():
            if default is REQUIRED and name not in self.params:
                raise ParameterError(f"{self.method} requires parameter {name!r}")
        if "k" in self.params:
            k = self.params["k"]
            if isinstance(k, bool) or not isinstance(k, numbers.Real) or not float(k).is_integer():
                raise ParameterError(f"k must be an integer, got {k!r}")

    @property
    def label(self) -> str:
        if self.method == "pipeline":
            return "+".join(s.label for s in self.stages)
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.method}({inner})" if inner else self.method

    @property
    def args(self) -> dict:
        """Keyword arguments of the method: defaults filled in, no ``seed``."""
        args = {**METHODS[self.method].params, **self.params}
        args.pop("seed", None)
        if "k" in args:
            args["k"] = int(args["k"])
        return args


def _check_ratio(ratio, zero_ok=True):
    if not 0.0 <= ratio <= 1.0 or (ratio == 0.0 and not zero_ok):
        bound = "[0, 1]" if zero_ok else "(0, 1]"
        raise ParameterError(f"ratio must lie in {bound}, got {ratio}")


def _check_k(k):
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")


def _reuse(shared, key, compute):
    """``compute()``, kept in ``shared`` under ``key`` when a dict is given."""
    if shared is None:
        return compute()
    if key not in shared:
        shared[key] = compute()
    return shared[key]


# ---------------------------------------------------------------------------
# Index-level implementations (what each method actually decides)


def rus_kept_indices(task: BinaryTask, ratio: float, seed) -> np.ndarray:
    _check_ratio(ratio)
    n_remove = removal_count(task.n_majority, task.n_minority, ratio)
    rng = np.random.default_rng(seed)
    removed = rng.choice(task.n_majority, size=n_remove, replace=False)
    keep = np.ones(task.n_majority, dtype=bool)
    keep[removed] = False
    return np.flatnonzero(keep)


def ros_picked_indices(task: BinaryTask, ratio: float, seed) -> np.ndarray:
    _check_ratio(ratio)
    n_new = removal_count(task.n_majority, task.n_minority, ratio)
    rng = np.random.default_rng(seed)
    return rng.integers(0, task.n_minority, size=n_new)


def smote_synthetic(task: BinaryTask, k: int, ratio: float, seed, shared=None) -> np.ndarray:
    """Synthetic minority points interpolated toward same-class neighbors.

    ``shared`` (see ``apply_resample``) keeps one table of all of each
    minority point's neighbours, whose first k columns serve every k:
    ``nearest_neighbors`` returns the first k of a stable argsort.
    """
    _check_k(k)
    _check_ratio(ratio)
    if task.n_minority < 2:
        raise ParameterError("smote needs at least 2 minority points")
    k_eff = min(k, task.n_minority - 1)
    n_new = removal_count(task.n_majority, task.n_minority, ratio)
    if n_new == 0:
        return np.empty((0, task.m))

    if shared is None:
        neighbors = nearest_neighbors(task.minority, task.minority, k_eff, self_offset=0)
    else:
        neighbors = _reuse(
            shared,
            ("smote",),
            lambda: nearest_neighbors(
                task.minority, task.minority, task.n_minority - 1, self_offset=0
            ),
        )[:, :k_eff]

    rng = np.random.default_rng(seed)
    seeds = rng.integers(0, task.n_minority, size=n_new)
    picks = rng.integers(0, k_eff, size=n_new)
    u = rng.random(n_new)
    base = task.minority[seeds]
    targets = task.minority[neighbors[seeds, picks]]
    return base + u[:, None] * (targets - base)


def enn_kept_indices(task: BinaryTask, k: int) -> np.ndarray:
    """Majority points whose k-neighborhood vote does not flip their class.

    Decisions are computed on the frozen input (batch semantics): removals
    never expose further points within the same pass.
    """
    _check_k(k)
    n_total = task.n_majority + task.n_minority
    if n_total - 1 < k:
        raise ParameterError(f"need at least {k} other points, have {n_total - 1}")
    everything = np.vstack([task.majority, task.minority])
    neighbors = nearest_neighbors(task.majority, everything, k, self_offset=0)
    minority_votes = (neighbors >= task.n_majority).sum(axis=1)
    # Removed iff a strict majority of neighbors belongs to the other class.
    return np.flatnonzero(minority_votes * 2 <= k)


def renn_kept_indices(task: BinaryTask, k: int) -> np.ndarray:
    kept = np.arange(task.n_majority)
    for pass_no in range(RENN_MAX_PASSES):
        if pass_no > 0 and len(kept) + task.n_minority - 1 < k:
            break  # too few points left for another editing pass
        current = BinaryTask(task.majority[kept], task.minority)
        surviving = enn_kept_indices(current, k)
        if len(surviving) == len(kept):
            break
        kept = kept[surviving]
    return kept


def tomek_kept_indices(task: BinaryTask) -> np.ndarray:
    """Drop the majority member of every cross-class mutual-nearest pair."""
    everything = np.vstack([task.majority, task.minority])
    if len(everything) < 2:
        return np.arange(task.n_majority)
    nn = nearest_neighbors(everything, everything, 1, self_offset=0)[:, 0]
    partner = nn[: task.n_majority]
    linked = (partner >= task.n_majority) & (nn[partner] == np.arange(task.n_majority))
    return np.flatnonzero(~linked)


def near_miss_kept_indices(task: BinaryTask, k: int, ratio: float) -> np.ndarray:
    """NearMiss-1: keep the majority points closest (on average) to the
    minority neighborhood."""
    _check_k(k)
    _check_ratio(ratio, zero_ok=False)
    if task.n_minority < 1:
        raise ParameterError("near_miss needs at least 1 minority point")
    k_eff = min(k, task.n_minority)
    n_keep = task.n_majority - removal_count(task.n_majority, task.n_minority, ratio)
    mean_dist = np.empty(task.n_majority)
    for start, dist in distance_blocks(task.majority, task.minority):
        # The k smallest distances in ascending order, as a full sort gives
        # them, so the mean is summed in the same order.
        nearest = np.sort(np.partition(dist, k_eff - 1, axis=1)[:, :k_eff], axis=1)
        mean_dist[start : start + len(dist)] = nearest.mean(axis=1)
    order = np.argsort(mean_dist, kind="stable")
    return np.sort(order[:n_keep])


# ---------------------------------------------------------------------------
# Point-level operations


def rus(task: BinaryTask, ratio: float, seed) -> np.ndarray:
    """Uniformly remove a fraction of the majority excess."""
    return task.majority[rus_kept_indices(task, ratio, seed)]


def ros(task: BinaryTask, ratio: float, seed) -> np.ndarray:
    """Duplicate uniformly drawn minority points; returns the augmented set."""
    picks = ros_picked_indices(task, ratio, seed)
    return np.vstack([task.minority, task.minority[picks]])


def smote(task: BinaryTask, k: int, ratio: float, seed) -> np.ndarray:
    """Augmented minority set: originals plus interpolated synthetics."""
    return np.vstack([task.minority, smote_synthetic(task, k, ratio, seed)])


def enn(task: BinaryTask, k: int) -> np.ndarray:
    return task.majority[enn_kept_indices(task, k)]


def renn(task: BinaryTask, k: int) -> np.ndarray:
    return task.majority[renn_kept_indices(task, k)]


def tomek(task: BinaryTask) -> np.ndarray:
    return task.majority[tomek_kept_indices(task)]


def near_miss(task: BinaryTask, k: int, ratio: float) -> np.ndarray:
    return task.majority[near_miss_kept_indices(task, k, ratio)]


def pipeline(task: BinaryTask, stages, seed=None) -> BinaryTask:
    """Apply stages left to right, each to the previous stage's output."""
    spec = ResampleSpec("pipeline", stages=tuple(stages))
    return apply_resample(task, spec, seed=seed)


# ---------------------------------------------------------------------------
# The method table: spec dispatch with index bookkeeping


@dataclass(frozen=True)
class ResampleOutcome:
    """Resampling result in terms of the original task.

    ``majority_indices`` select the surviving majority rows.  The output
    minority is ``vstack([task.minority, synthetic])[minority_indices]``:
    original rows, their copies and synthetic points, in output order.
    """

    majority_indices: np.ndarray
    minority_indices: np.ndarray
    synthetic: np.ndarray

    def resampled_task(self, task: BinaryTask) -> BinaryTask:
        pool = np.vstack([task.minority, self.synthetic]) if len(self.synthetic) else task.minority
        return BinaryTask(
            majority=task.majority[self.majority_indices],
            minority=pool[self.minority_indices],
            minority_label=task.minority_label,
            majority_label=task.majority_label,
        )


def _kept(task: BinaryTask, majority_indices) -> ResampleOutcome:
    """An undersampler's outcome: the minority passes through."""
    return ResampleOutcome(majority_indices, np.arange(task.n_minority), np.empty((0, task.m)))


def _copied(task: BinaryTask, picks) -> ResampleOutcome:
    """ROS's outcome: the minority followed by copies of the picked rows."""
    minority = np.concatenate([np.arange(task.n_minority), picks])
    return ResampleOutcome(np.arange(task.n_majority), minority, np.empty((0, task.m)))


def _synthesized(task: BinaryTask, synthetic) -> ResampleOutcome:
    """An oversampler's outcome: the minority followed by new points."""
    minority = np.arange(task.n_minority + len(synthetic))
    return ResampleOutcome(np.arange(task.n_majority), minority, synthetic)


def _compose(task: BinaryTask, spec: ResampleSpec, seed, shared) -> ResampleOutcome:
    """Stages left to right, each on the previous stage's output; stage i
    draws from ``derive_seed(seed, i)``.  Only stage 0 sees ``task`` itself,
    so only it gets ``shared``."""
    outcome, current = _kept(task, np.arange(task.n_majority)), task
    for i, stage in enumerate(spec.stages):
        if i:
            current = outcome.resampled_task(task)
        step = apply_resample_detail(
            current, stage, derive_seed(seed, i), shared=None if i else shared
        )
        # Row j of the current minority is row minority_indices[j] of the
        # original pool; the step's synthetic points extend that pool.
        first_new = task.n_minority + len(outcome.synthetic)
        lookup = np.concatenate(
            [outcome.minority_indices, first_new + np.arange(len(step.synthetic))]
        )
        outcome = ResampleOutcome(
            outcome.majority_indices[step.majority_indices],
            lookup[step.minority_indices],
            np.vstack([outcome.synthetic, step.synthetic]),
        )
    return outcome


def _rbu(task: BinaryTask, spec: ResampleSpec, seed, shared) -> ResampleOutcome:
    """RBU's outcome.  The greedy loop for ratio r takes the first
    ``removal_count(r)`` steps of the loop for ratio 1.0, so with ``shared``
    one ratio-1.0 removal order per (gamma, tie rule, tie seed) serves every
    ratio."""
    params = RbuParams(**spec.args)
    n_remove = removal_count(task.n_majority, task.n_minority, params.ratio)
    if shared is None or n_remove == 0:
        return _kept(task, rbu_kept_indices(task, params))
    order = _reuse(
        shared,
        ("rbu", params.gamma, params.tie_rule, params.tie_seed),
        lambda: radial.rbu_removal_order(task, replace(params, ratio=1.0)),
    )
    return _kept(task, np.delete(np.arange(task.n_majority), order[:n_remove]))


def _kept_once(task: BinaryTask, spec: ResampleSpec, shared, kept) -> ResampleOutcome:
    """An undersampler whose kept indices ``kept()`` depend on the task and
    the spec's arguments alone: with ``shared``, once per argument set."""
    return _kept(task, _reuse(shared, (spec.method, *spec.args.values()), kept))


@dataclass(frozen=True)
class Method:
    """A method's parameters in declared order, each with its default (or
    REQUIRED), and how a spec of it runs: ``run(task, spec, seed, shared)``."""

    params: dict
    run: Callable[[BinaryTask, ResampleSpec, object, dict | None], ResampleOutcome]


# The runners look the index functions up by name when called, so that
# replacing a module attribute (as a tracer does) reaches every spec.
METHODS = {
    "none": Method({}, lambda task, spec, seed, shared: _kept(task, np.arange(task.n_majority))),
    "rus": Method(
        {"ratio": REQUIRED},
        lambda task, spec, seed, shared: _kept(
            task, rus_kept_indices(task, **spec.args, seed=seed)
        ),
    ),
    "ros": Method(
        {"ratio": REQUIRED},
        lambda task, spec, seed, shared: _copied(
            task, ros_picked_indices(task, **spec.args, seed=seed)
        ),
    ),
    "smote": Method(
        {"k": 5, "ratio": REQUIRED},
        lambda task, spec, seed, shared: _synthesized(
            task, smote_synthetic(task, **spec.args, seed=seed, shared=shared)
        ),
    ),
    "enn": Method(
        {"k": 3},
        lambda task, spec, seed, shared: _kept_once(
            task, spec, shared, lambda: enn_kept_indices(task, **spec.args)
        ),
    ),
    "renn": Method(
        {"k": 3},
        lambda task, spec, seed, shared: _kept_once(
            task, spec, shared, lambda: renn_kept_indices(task, **spec.args)
        ),
    ),
    "tomek": Method({}, lambda task, spec, seed, shared: _kept(task, tomek_kept_indices(task))),
    "near_miss": Method(
        {"k": 3, "ratio": 1.0},
        lambda task, spec, seed, shared: _kept_once(
            task, spec, shared, lambda: near_miss_kept_indices(task, **spec.args)
        ),
    ),
    "rbu": Method(
        {"gamma": REQUIRED, "ratio": REQUIRED, "tie_rule": TIE_LOWEST_INDEX, "tie_seed": None},
        _rbu,
    ),
    "pipeline": Method({}, _compose),
}


def apply_resample_detail(
    task: BinaryTask, spec: ResampleSpec, seed=None, shared=None
) -> ResampleOutcome:
    """Run a spec and report which rows survived / were added.

    ``shared`` is a dict owned by one training task (one inner fold of
    parameter selection).  Runners keep there what depends on that task
    alone (an RBU removal order, a SMOTE neighbour table, the kept indices
    of ENN, RENN and NearMiss), so that other specs run on the same task
    reuse it; results are identical with or without it.
    """
    return METHODS[spec.method].run(task, spec, spec.params.get("seed", seed), shared)


def apply_resample(task: BinaryTask, spec: ResampleSpec, seed=None, shared=None) -> BinaryTask:
    """Run a spec and return the resampled task."""
    return apply_resample_detail(task, spec, seed=seed, shared=shared).resampled_task(task)


def stl_spec(k: int = METHODS["smote"].params["k"], ratio: float = 1.0) -> ResampleSpec:
    """SMOTE followed by Tomek-link cleaning."""
    return ResampleSpec(
        "pipeline",
        stages=(
            ResampleSpec("smote", {"k": k, "ratio": ratio}),
            ResampleSpec("tomek"),
        ),
    )


def senn_spec(
    k: int = METHODS["smote"].params["k"],
    ratio: float = 1.0,
    clean_k: int = METHODS["enn"].params["k"],
) -> ResampleSpec:
    """SMOTE followed by edited-nearest-neighbor cleaning."""
    return ResampleSpec(
        "pipeline",
        stages=(
            ResampleSpec("smote", {"k": k, "ratio": ratio}),
            ResampleSpec("enn", {"k": clean_k}),
        ),
    )
