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

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from .dataio import BinaryTask
from .errors import ParameterError
from .neighbors import nearest_neighbors
from .potential import check_finite
from .radial import RbuParams, rbu_kept_indices, removal_count
from .seeding import derive_seed

METHODS = (
    "none",
    "rus",
    "ros",
    "smote",
    "enn",
    "renn",
    "tomek",
    "near_miss",
    "rbu",
    "pipeline",
)

RENN_MAX_PASSES = 100


@dataclass(frozen=True)
class ResampleSpec:
    """Method identifier plus its hyperparameters; pipelines carry stages."""

    method: str
    params: dict = field(default_factory=dict)
    stages: tuple["ResampleSpec", ...] = ()

    def __post_init__(self):
        if self.method not in METHODS:
            raise ParameterError(f"unknown resampling method {self.method!r}")
        if self.method == "pipeline" and not self.stages:
            raise ParameterError("pipeline spec needs at least one stage")

    @property
    def label(self) -> str:
        if self.method == "pipeline":
            return "+".join(s.label for s in self.stages)
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.method}({inner})" if inner else self.method


def _check_ratio(ratio, zero_ok=True):
    if not 0.0 <= ratio <= 1.0 or (ratio == 0.0 and not zero_ok):
        bound = "[0, 1]" if zero_ok else "(0, 1]"
        raise ParameterError(f"ratio must lie in {bound}, got {ratio}")


def _pop_required(params: dict, name: str, method: str):
    try:
        return params.pop(name)
    except KeyError:
        raise ParameterError(f"{method} requires parameter {name!r}") from None


def _check_k(k):
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")


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


def smote_synthetic(task: BinaryTask, k: int, ratio: float, seed) -> np.ndarray:
    """Synthetic minority points interpolated toward same-class neighbors."""
    _check_k(k)
    _check_ratio(ratio)
    if task.n_minority < 2:
        raise ParameterError("smote needs at least 2 minority points")
    k_eff = min(k, task.n_minority - 1)
    n_new = removal_count(task.n_majority, task.n_minority, ratio)
    if n_new == 0:
        return np.empty((0, task.m))

    neighbors = nearest_neighbors(task.minority, task.minority, k_eff, self_offset=0)

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


def renn_kept_indices(task: BinaryTask, k: int, max_passes: int = RENN_MAX_PASSES) -> np.ndarray:
    kept = np.arange(task.n_majority)
    for pass_no in range(max_passes):
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
    check_finite(task.majority, task.minority)
    dist = cdist(task.majority, task.minority)
    # The k smallest distances in ascending order, as a full sort gives them,
    # so the mean is summed in the same order.
    nearest = np.sort(np.partition(dist, k_eff - 1, axis=1)[:, :k_eff], axis=1)
    mean_dist = nearest.mean(axis=1)
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
    if not stages:
        raise ParameterError("pipeline needs at least one stage")
    spec = ResampleSpec("pipeline", stages=tuple(stages))
    return apply_resample(task, spec, seed=seed)


# ---------------------------------------------------------------------------
# Spec dispatch with index bookkeeping


@dataclass(frozen=True)
class ResampleOutcome:
    """Resampling result in terms of the original task.

    ``majority_indices`` select surviving majority rows; ``minority_entries``
    lists the output minority in order, each entry either an original row
    index (int) or a synthetic point (vector).
    """

    majority_indices: np.ndarray
    minority_entries: tuple

    def minority_matrix(self, task: BinaryTask) -> np.ndarray:
        rows = [
            task.minority[entry] if isinstance(entry, (int, np.integer)) else entry
            for entry in self.minority_entries
        ]
        return np.array(rows, dtype=np.float64).reshape(len(rows), task.m)


def _identity_outcome(task: BinaryTask) -> ResampleOutcome:
    return ResampleOutcome(
        majority_indices=np.arange(task.n_majority),
        minority_entries=tuple(range(task.n_minority)),
    )


def apply_resample_detail(task: BinaryTask, spec: ResampleSpec, seed=None) -> ResampleOutcome:
    """Run a spec and report which rows survived / were added."""
    seed = spec.params.get("seed", seed)
    method = spec.method

    if method == "pipeline":
        outcome = _identity_outcome(task)
        current = task
        for i, stage in enumerate(spec.stages):
            stage_outcome = apply_resample_detail(current, stage, derive_seed(seed, i))
            majority = outcome.majority_indices[stage_outcome.majority_indices]
            entries = tuple(
                outcome.minority_entries[e] if isinstance(e, (int, np.integer)) else e
                for e in stage_outcome.minority_entries
            )
            outcome = ResampleOutcome(majority, entries)
            current = BinaryTask(
                majority=task.majority[majority],
                minority=outcome.minority_matrix(task),
                minority_label=task.minority_label,
                majority_label=task.majority_label,
            )
        return outcome

    if method == "none":
        return _identity_outcome(task)

    params = dict(spec.params)
    params.pop("seed", None)
    base = _identity_outcome(task)
    if method == "rus":
        kept = rus_kept_indices(task, _pop_required(params, "ratio", method), seed)
        _reject_extras(method, params)
        return ResampleOutcome(kept, base.minority_entries)
    if method == "ros":
        picks = ros_picked_indices(task, _pop_required(params, "ratio", method), seed)
        _reject_extras(method, params)
        return ResampleOutcome(
            base.majority_indices, base.minority_entries + tuple(int(p) for p in picks)
        )
    if method == "smote":
        synth = smote_synthetic(
            task, int(params.pop("k", 5)), _pop_required(params, "ratio", method), seed
        )
        _reject_extras(method, params)
        return ResampleOutcome(
            base.majority_indices, base.minority_entries + tuple(synth)
        )
    if method == "enn":
        kept = enn_kept_indices(task, int(params.pop("k", 3)))
        _reject_extras(method, params)
        return ResampleOutcome(kept, base.minority_entries)
    if method == "renn":
        kept = renn_kept_indices(task, int(params.pop("k", 3)))
        _reject_extras(method, params)
        return ResampleOutcome(kept, base.minority_entries)
    if method == "tomek":
        _reject_extras(method, params)
        return ResampleOutcome(tomek_kept_indices(task), base.minority_entries)
    if method == "near_miss":
        kept = near_miss_kept_indices(
            task, int(params.pop("k", 3)), params.pop("ratio", 1.0)
        )
        _reject_extras(method, params)
        return ResampleOutcome(kept, base.minority_entries)
    if method == "rbu":
        rbu_params = RbuParams(
            gamma=_pop_required(params, "gamma", method),
            ratio=_pop_required(params, "ratio", method),
            tie_rule=params.pop("tie_rule", "lowest-index"),
            tie_seed=params.pop("tie_seed", None),
        )
        _reject_extras(method, params)
        return ResampleOutcome(rbu_kept_indices(task, rbu_params), base.minority_entries)
    raise ParameterError(f"unknown resampling method {method!r}")


def _reject_extras(method, params):
    if params:
        raise ParameterError(f"unexpected parameters for {method}: {sorted(params)}")


def apply_resample(task: BinaryTask, spec: ResampleSpec, seed=None) -> BinaryTask:
    """Run a spec and return the resampled task."""
    outcome = apply_resample_detail(task, spec, seed=seed)
    return BinaryTask(
        majority=task.majority[outcome.majority_indices],
        minority=outcome.minority_matrix(task),
        minority_label=task.minority_label,
        majority_label=task.majority_label,
    )


def stl_spec(k: int = 5, ratio: float = 1.0) -> ResampleSpec:
    """SMOTE followed by Tomek-link cleaning."""
    return ResampleSpec(
        "pipeline",
        stages=(
            ResampleSpec("smote", {"k": k, "ratio": ratio}),
            ResampleSpec("tomek"),
        ),
    )


def senn_spec(k: int = 5, ratio: float = 1.0, clean_k: int = 3) -> ResampleSpec:
    """SMOTE followed by edited-nearest-neighbor cleaning."""
    return ResampleSpec(
        "pipeline",
        stages=(
            ResampleSpec("smote", {"k": k, "ratio": ratio}),
            ResampleSpec("enn", {"k": clean_k}),
        ),
    )
