"""Reference resamplers: random under/oversampling, SMOTE, neighborhood
cleaners, NearMiss-1, and pipeline composition for the combined methods.

Every method, RBU included, runs through one entry,
``apply_resample(task, ResampleSpec(method, params), seed)``: the index
functions decide which rows survive or are added, and the method table
builds the resampled task from them.

Undersamplers only ever select a subset of the majority set; oversamplers
only ever extend the minority set.  Every stochastic method is a pure
function of (task, params, seed).

Cleaning here is one-sided: ENN, RENN and Tomek-link removal drop majority
points only, which is how they are used as undersamplers in imbalanced
pipelines (SMOTE+Tomek, SMOTE+ENN).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from . import radial
from .dataio import BinaryTask
from .errors import ParameterError
from .neighbors import _MAX_ROUNDS, for_each_block, integer_k, nearest_neighbors
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
            integer_k(self.params["k"])

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
            args["k"] = integer_k(args["k"])
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

    ``shared`` (see ``apply_resample``) keeps one table of each minority
    point's nearest neighbours, whose first k columns serve every k up to its
    width: ``nearest_neighbors`` returns the first k of a stable argsort.  The
    table is ``_MAX_ROUNDS`` wide, or narrower for a small minority, and is
    widened only for a larger k, so that large minorities get a narrow search.
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
        table = shared.get(("smote",))
        if table is None or table.shape[1] < k_eff:
            width = min(task.n_minority - 1, max(k_eff, _MAX_ROUNDS))
            table = nearest_neighbors(task.minority, task.minority, width, self_offset=0)
            shared[("smote",)] = table
        neighbors = table[:, :k_eff]

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
    return _edited(task, k, 1)


def renn_kept_indices(task: BinaryTask, k: int) -> np.ndarray:
    """ENN passes, each on the previous pass's output, until one removes
    nothing or fewer than k other points are left (at most
    ``RENN_MAX_PASSES``)."""
    return _edited(task, k, RENN_MAX_PASSES)


def _edited(task: BinaryTask, k: int, passes: int) -> np.ndarray:
    """Majority points kept by up to ``passes`` ENN passes.

    Each pass removes the majority points a strict majority of whose k
    nearest remaining points are minority points.  The points a pass sees
    are a subset of the last pass's, in the same order, so a point keeps
    the first k entries of its stable neighbour order, and its vote, until
    one of them is removed: a later pass queries only the points that lost
    a neighbour, and only they can be removed.
    """
    _check_k(k)
    n_majority, n_minority = task.n_majority, task.n_minority
    if n_majority + n_minority - 1 < k:
        raise ParameterError(f"need at least {k} other points, have {n_majority + n_minority - 1}")

    def kept_by_vote(nearest):
        """Kept unless a strict majority of the k neighbours are minority points."""
        return (nearest >= n_majority).sum(axis=1) <= k // 2

    everything = task.points
    # Row i: majority point i's k nearest other points, as rows of ``everything``.
    neighbors = nearest_neighbors(task.majority, everything, k, self_offset=0)
    keep = kept_by_vote(neighbors)
    if passes == 1 or keep.all():
        return np.flatnonzero(keep)
    alive = np.concatenate([keep, np.ones(n_minority, dtype=bool)])
    for _ in range(passes - 1):
        if np.count_nonzero(alive) - 1 < k:
            break  # too few points left for another editing pass
        # Rows of removed points are stale; alive[:n_majority] hides them.
        rows = np.flatnonzero(alive[:n_majority] & ~alive[neighbors].all(axis=1))
        if not len(rows):
            break  # no vote can change
        points = np.flatnonzero(alive)
        found = points[
            nearest_neighbors(
                everything[rows], everything[points], k, self_offset=np.searchsorted(points, rows)
            )
        ]
        neighbors[rows] = found
        alive[rows] = kept_by_vote(found)
    return np.flatnonzero(alive[:n_majority])


def tomek_kept_indices(task: BinaryTask) -> np.ndarray:
    """Drop the majority member of every cross-class mutual-nearest pair."""
    everything = task.points
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

    def body(start, dist):
        # The k smallest distances in ascending order, as a full sort gives
        # them, so the mean is summed in the same order.
        nearest = np.sort(np.partition(dist, k_eff - 1, axis=1)[:, :k_eff], axis=1)
        mean_dist[start : start + len(dist)] = nearest.mean(axis=1)

    for_each_block(task.majority, task.minority, body)
    order = np.argsort(mean_dist, kind="stable")
    return np.sort(order[:n_keep])


# ---------------------------------------------------------------------------
# The method table: spec dispatch, each runner returning the resampled task


def _gathered(task: BinaryTask, rows, n_majority) -> BinaryTask:
    """The task of ``task.points[rows]``, whose first ``n_majority`` rows are
    majority rows; each point keeps its dataset row."""
    source_rows = None if task.source_rows is None else task.source_rows[rows]
    # The gather is a fresh array, which the new task owns uncopied.
    return BinaryTask._stacked(
        task.points[rows], n_majority, task.minority_label, task.majority_label, source_rows
    )


def _kept(task: BinaryTask, survivors) -> BinaryTask:
    """An undersampler's result: the minority passes through."""
    rows = np.concatenate([survivors, np.arange(task.n_majority, len(task.points))])
    return _gathered(task, rows, len(survivors))


def _copied(task: BinaryTask, picks) -> BinaryTask:
    """ROS's result: the task followed by copies of the picked minority rows."""
    rows = np.concatenate([np.arange(len(task.points)), task.n_majority + picks])
    return _gathered(task, rows, task.n_majority)


def _synthesized(task: BinaryTask, synthetic) -> BinaryTask:
    """An oversampler's result: the task followed by new points, whose
    dataset row is -1."""
    source_rows = task.source_rows
    if source_rows is not None:
        source_rows = np.concatenate([source_rows, np.full(len(synthetic), -1)])
    return BinaryTask._stacked(
        np.concatenate([task.points, synthetic]), task.n_majority, task.minority_label,
        task.majority_label, source_rows,
    )


def _compose(task: BinaryTask, spec: ResampleSpec, seed, shared) -> BinaryTask:
    """Stages left to right, each on the previous stage's output; stage i
    draws from ``derive_seed(seed, i)``.  Only stage 0 sees ``task`` itself,
    so only it gets ``shared``."""
    for i, stage in enumerate(spec.stages):
        task = apply_resample(task, stage, derive_seed(seed, i), shared=None if i else shared)
    return task


def _rbu(task: BinaryTask, spec: ResampleSpec, seed, shared) -> BinaryTask:
    """RBU's result.  The greedy loop for ratio r takes the first
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


def _kept_once(task: BinaryTask, spec: ResampleSpec, shared, kept) -> BinaryTask:
    """An undersampler whose kept indices ``kept()`` depend on the task and
    the spec's arguments alone: with ``shared``, once per argument set."""
    return _kept(task, _reuse(shared, (spec.method, *spec.args.values()), kept))


@dataclass(frozen=True)
class Method:
    """A method's parameters in declared order, each with its default (or
    REQUIRED), and how a spec of it runs: ``run(task, spec, seed, shared)``."""

    params: dict
    run: Callable[[BinaryTask, ResampleSpec, object, dict | None], BinaryTask]


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


def apply_resample(task: BinaryTask, spec: ResampleSpec, seed=None, shared=None) -> BinaryTask:
    """Run a spec and return the resampled task.

    The result's ``source_rows`` is each point's dataset row, -1 for a point
    the spec made, or None when ``task`` has none.  ``shared`` is a dict
    owned by one training task (one inner fold of parameter selection).
    Runners keep there what depends on that task alone (an RBU removal
    order, a SMOTE neighbour table, the kept indices of ENN, RENN and
    NearMiss), so that other specs run on the same task reuse it; results
    are identical with or without it.
    """
    return METHODS[spec.method].run(task, spec, spec.params.get("seed", seed), shared)
