"""Reference resamplers: random under/oversampling, SMOTE, neighborhood
cleaners, NearMiss-1, and pipeline composition for the combined methods.

Every method, RBU included, runs through one entry,
``run_grid(task, specs, seeds, shared)``: a grid of specs of one method on
one task, each spec with its own seed, giving each spec's resampled task or
the ParameterError that refused it.  ``apply_resample(task, spec, seed)``
is a grid of one.  The index functions decide which rows survive or are
added, and the method table builds the resampled tasks from them.

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
from functools import cached_property

import numpy as np

from . import radial
from .dataio import BinaryTask
from .errors import ParameterError
from .neighbors import (
    _BLOCK,
    _MAX_ROUNDS,
    _euclidean,
    _nearest_block,
    check_finite,
    for_each_block,
    integer_k,
    nearest_neighbors,
)
from .potential import TIE_LOWEST_INDEX
from .radial import RbuParams, rbu_kept_indices, removal_count
from .seeding import check_seed, derive_seed

RENN_MAX_PASSES = 100

# Marks a parameter that a spec must give: it has no default.
REQUIRED = object()


@dataclass(frozen=True)
class ResampleSpec:
    """Method identifier plus its hyperparameters; pipelines carry stages.

    The parameters are checked against the method's schema when the spec is
    built: ``k`` must be an integer, and ``ratio`` and ``gamma`` real
    numbers.  ``seed``, which every method accepts, pins the random stream:
    None or a non-negative integer.
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
        for name in ("ratio", "gamma"):
            value = self.params.get(name, 0.0)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ParameterError(f"{name} must be a real number, got {value!r}")
        check_seed(self.params.get("seed"))

    @property
    def label(self) -> str:
        if self.method == "pipeline":
            return "+".join(s.label for s in self.stages)
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.method}({inner})" if inner else self.method

    @cached_property
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


def _nearest_table(points, k, shared, key) -> np.ndarray:
    """``nearest_neighbors(points, points, k, self_offset=0)``, or a wider
    table whose first k columns are it: ``nearest_neighbors`` returns the
    first k of a stable argsort.  With ``shared``, one table is kept there
    under ``key``, ``_MAX_ROUNDS`` wide or narrower for fewer points, and
    widened only for a larger k, so that large sets get a narrow search."""
    if shared is None:
        return nearest_neighbors(points, points, k, self_offset=0)
    table = shared.get(key)
    if table is None or table.shape[1] < min(k, len(points) - 1):
        width = min(len(points) - 1, max(k, _MAX_ROUNDS))
        table = nearest_neighbors(points, points, width, self_offset=0)
        shared[key] = table
    return table


def smote_synthetic(task: BinaryTask, k: int, ratio: float, seed, shared=None) -> np.ndarray:
    """Synthetic minority points interpolated toward same-class neighbors.

    ``shared`` (see ``apply_resample``) keeps one table of each minority
    point's nearest neighbours (:func:`_nearest_table`), which serves every
    k up to its width.
    """
    _check_k(k)
    _check_ratio(ratio)
    if task.n_minority < 2:
        raise ParameterError("smote needs at least 2 minority points")
    k_eff = min(k, task.n_minority - 1)
    n_new = removal_count(task.n_majority, task.n_minority, ratio)
    if n_new == 0:
        return np.empty((0, task.m))

    neighbors = _nearest_table(task.minority, k_eff, shared, ("smote",))
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
    check_finite(task.points)
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
# Pipeline cleaning stages over every output of an oversampling first stage


def _extended_nearest(task, added, k, all_rows, shared):
    """The k nearest other rows of each output's majority rows, or with
    ``all_rows`` of all its rows (its added rows padded to the most added),
    as row indices of that output: (outputs, rows, k).  Output i is ``task``
    followed by the minority rows ``added[i]``.

    A row's order equals ``nearest_neighbors(points, points, k,
    self_offset=0)`` on its output's points.  Its nearest rows of ``task``
    come from one table of the task and their distances (kept in
    ``shared``); only distances to added rows are computed, by ``cdist``'s
    arithmetic.  Candidates are ordered by a stable pick over distances laid
    out in row index order, rows of ``task`` first, so an equal distance,
    infinite ones included, goes to the lowest index.  Padding masks come
    after every real candidate, and an added row's own mask after every row
    of ``task``, so its first neighbour (all that Tomek links ask, the one
    use of ``all_rows``) is exact whatever the distances.
    """
    n = len(task.points)
    queries = n if all_rows else task.n_majority
    sizes = np.array([len(rows) for rows in added])
    widest = int(sizes.max())
    present = np.arange(widest) < sizes[:, None]
    flat = np.concatenate(added)
    check_finite(flat)
    width = min(k, n - 1)
    table = _nearest_table(task.points, k, shared, ("nearest",))
    dist = _reuse(shared, ("nearest distances", table.shape[1]),
                  lambda: _euclidean(task.points, task.points, table))
    found, dist = table[:queries, :width], dist[:queries, :width]
    # Added row j of output i against rows :queries of the task: cross[i, j].
    cross = np.full((len(added), widest, queries), np.inf)
    across = np.empty((len(flat), queries))

    def body(start, block):
        across[start : start + len(block)] = block

    for_each_block(flat, task.points[:queries], body)
    cross[present] = across
    shape = (len(added), queries)
    candidates = np.concatenate([np.broadcast_to(dist, shape + (width,)),
                                 cross.transpose(0, 2, 1)], axis=2)
    rows = np.concatenate([np.broadcast_to(found, shape + (width,)),
                           np.broadcast_to(n + np.arange(widest), shape + (widest,))], axis=2)
    picks = _nearest_block(candidates.reshape(-1, width + widest), k, None, 0)
    nearest = np.take_along_axis(rows, picks.reshape(shape + (k,)), axis=2)
    if not all_rows:
        return nearest
    # Added rows against every row of their output, whose row indices are
    # the columns; columns past an output's added rows are masked below.
    starts = np.cumsum(sizes) - sizes
    columns = starts[:, None] + np.minimum(np.arange(widest), sizes[:, None] - 1)
    among = _euclidean(flat, flat, np.repeat(columns, sizes, axis=0))
    within = np.empty((len(added), widest, widest))
    within[present] = among
    within[:, np.arange(widest), np.arange(widest)] = np.inf  # the row itself
    np.copyto(within, np.inf, where=~present[:, None, :])
    candidates = np.concatenate([cross, within], axis=2)
    candidates[~present] = 0.0  # padding rows: any finite pick
    picks = _nearest_block(candidates.reshape(-1, n + widest), k, None, 0)
    return np.concatenate([nearest, picks.reshape(len(added), widest, k)], axis=1)


def _clean_extended(task, outputs, specs, shared, ks, all_rows, keep, alone) -> list:
    """Each output, ``task`` followed by minority rows, cleaned by its spec:
    the kept task, or the ParameterError that refused it.

    ``ks`` holds each output's neighbour count, or the ParameterError its
    spec raises.  Outputs go in batches of about one distance block through
    :func:`_extended_nearest` (the neighbours of the majority rows, or with
    ``all_rows`` of all rows), and ``keep(nearest, ks)`` gives a batch's
    (outputs, n_majority) mask of kept majority rows.
    ``alone(output, spec)`` gives an output's kept majority rows without the
    batch, for a task too large for one block or added rows that are not
    finite, and raises the ParameterError of a refused output.
    """
    n = len(task.points)
    results = list(ks)
    valid = [i for i, k in enumerate(ks) if not isinstance(k, ParameterError)]
    if not valid:
        return results
    widest = max(len(outputs[i].points) for i in valid) - n
    size = _BLOCK // (n + widest) ** 2 if n >= 2 else 0
    for start in range(0, len(valid), max(size, 1)):
        batch = valid[start : start + max(size, 1)]
        nearest = None
        if size:
            try:
                nearest = _extended_nearest(task, [outputs[i].points[n:] for i in batch],
                                            max(ks[i] for i in batch), all_rows, shared)
            except ParameterError:
                pass  # each output raises it alone
        if nearest is not None:
            mask = keep(nearest, np.array([ks[i] for i in batch]))
            for i, out in zip(batch, _kept_each([outputs[i] for i in batch], mask)):
                results[i] = out
            continue
        for i in batch:
            try:
                results[i] = _kept(outputs[i], alone(outputs[i], specs[i]))
            except ParameterError as error:
                results[i] = error
    return results


def _tomek_extended(task, outputs, specs, shared) -> list:
    n_majority = task.n_majority

    def keep(nearest, ks):
        nn = nearest[:, :, 0]
        partner = nn[:, :n_majority]
        linked = partner >= n_majority
        linked &= np.take_along_axis(nn, partner, axis=1) == np.arange(n_majority)
        return ~linked

    return _clean_extended(task, outputs, specs, shared, [1] * len(outputs), True, keep,
                           lambda out, spec: tomek_kept_indices(out))


def _enn_extended(task, outputs, specs, shared) -> list:
    n_majority = task.n_majority

    def checked_k(out, spec):
        k = spec.args["k"]
        _check_k(k)
        if len(out.points) - 1 < k:
            raise ParameterError(f"need at least {k} other points, have {len(out.points) - 1}")
        return k

    def keep(nearest, ks):
        # Minority votes among each row's first k neighbours, k per output.
        votes = (nearest >= n_majority).cumsum(axis=2)
        at_k = np.broadcast_to((ks - 1)[:, None, None], votes.shape[:2] + (1,))
        return np.take_along_axis(votes, at_k, axis=2)[:, :, 0] <= (ks // 2)[:, None]

    ks = []
    for out, spec in zip(outputs, specs):
        try:
            ks.append(checked_k(out, spec))
        except ParameterError as error:
            ks.append(error)
    return _clean_extended(task, outputs, specs, shared, ks, False, keep,
                           lambda out, spec: enn_kept_indices(out, **spec.args))


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


def _kept_each(outputs, keep) -> list:
    """``_kept(outputs[i], np.flatnonzero(keep[i]))`` for outputs of one
    task (same majority rows and labels), whose kept majority rows the
    (outputs, n_majority) mask ``keep`` marks, in one gather; each result
    owns its slice of the gathered array."""
    sizes = np.array([len(out.points) for out in outputs])
    starts = np.cumsum(sizes) - sizes
    rows = np.ones(sizes.sum(), dtype=bool)
    rows[(starts[:, None] + np.arange(keep.shape[1])).ravel()] = keep.ravel()
    n_kept = keep.sum(axis=1)
    lengths = sizes - keep.shape[1] + n_kept
    ends = np.cumsum(lengths)
    spans = list(zip((ends - lengths).tolist(), ends.tolist()))
    points = np.concatenate([out.points for out in outputs])[rows]
    first = outputs[0]
    source_rows = None
    if first.source_rows is not None:
        source_rows = np.concatenate([out.source_rows for out in outputs])[rows]
    return [
        BinaryTask._stacked(points[start:end], count, first.minority_label, first.majority_label,
                            None if source_rows is None else source_rows[start:end])
        for (start, end), count in zip(spans, n_kept.tolist())
    ]


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


def _each(specs, seeds, run) -> list:
    """``run(spec, seed)`` for each spec, or the ParameterError it raised."""
    results = []
    for spec, seed in zip(specs, seeds):
        try:
            results.append(run(spec, seed))
        except ParameterError as error:
            results.append(error)
    return results


def _pipeline_grid(task, specs, seeds, shared) -> list:
    """Stages left to right over the whole grid.  Stage i of a spec draws
    from ``derive_seed(seed, i)`` and runs on that spec's output of stage
    i - 1.  Stage 0 of every spec runs on ``task`` with ``shared``, as one
    grid per method.  A cleaning stage after an oversampling stage 0 (stl,
    senn) runs once over all those outputs, which extend ``task``
    (``Method.run_extended``); any other later stage runs on each output
    alone, without ``shared``."""
    results = [task] * len(specs)
    extends = [False] * len(specs)  # results[i] is task followed by new rows
    for depth in range(max(len(spec.stages) for spec in specs)):
        groups = {}
        for i, spec in enumerate(specs):
            if depth < len(spec.stages) and isinstance(results[i], BinaryTask):
                groups.setdefault(spec.stages[depth].method, []).append(i)
        for method, members in groups.items():
            runner = METHODS[method]
            stages = [specs[i].stages[depth] for i in members]
            stage_seeds = [derive_seed(seeds[i], depth) if runner.seeded else None for i in members]
            inputs = [results[i] for i in members]
            if depth == 0:
                outputs = run_grid(task, stages, stage_seeds, shared)
            elif runner.run_extended is not None and all(extends[i] for i in members):
                outputs = runner.run_extended(task, inputs, stages, shared)
            else:
                outputs = [run_grid(stage_input, [stage], [seed])[0]
                           for stage_input, stage, seed in zip(inputs, stages, stage_seeds)]
            for i, output in zip(members, outputs):
                results[i] = output
                extends[i] = depth == 0 and runner.oversamples
    return results


def _rbu_grid(task, specs, seeds, shared) -> list:
    """RBU's results.  The greedy loop for ratio r takes the first
    ``removal_count(r)`` steps of the loop for ratio 1.0, so one ratio-1.0
    removal order per (gamma, tie rule, tie seed) serves every ratio.  A
    grid of more than one spec keeps them in a dict of its own when not
    given ``shared``; with ``shared``, each parameter set's result is kept
    too."""
    if shared is None and len(specs) > 1:
        shared = {}

    def kept(params):
        n_remove = removal_count(task.n_majority, task.n_minority, params.ratio)
        if shared is None or n_remove == 0:
            return _kept(task, rbu_kept_indices(task, params))
        order = _reuse(
            shared,
            ("rbu order", params.gamma, params.tie_rule, params.tie_seed),
            lambda: radial.rbu_removal_order(task, replace(params, ratio=1.0)),
        )
        keep = np.ones(task.n_majority, dtype=bool)
        keep[order[:n_remove]] = False
        return _kept(task, np.flatnonzero(keep))

    return _each(specs, seeds, lambda spec, seed: _reuse(
        shared, ("rbu", *spec.args.values()), lambda: kept(RbuParams(**spec.args))
    ))


def _drawn(result):
    """The grid runner of a method whose ``result(task, args, seed, shared)``
    draws from the seed."""
    return lambda task, specs, seeds, shared: _each(
        specs, seeds, lambda spec, seed: result(task, spec.args, seed, shared)
    )


def _kept_once(kept):
    """The grid runner of an undersampler whose kept indices
    ``kept(task, args)`` depend on the task and the arguments alone: with
    ``shared``, its result is made once per argument set and given to every
    spec of that set."""
    return lambda task, specs, seeds, shared: _each(
        specs, seeds, lambda spec, seed: _reuse(
            shared, (spec.method, *spec.args.values()), lambda: _kept(task, kept(task, spec.args))
        ),
    )


@dataclass(frozen=True)
class Method:
    """A method's parameters in declared order, each with its default (or
    REQUIRED), and how a grid of its specs runs on a task:
    ``run_grid(task, specs, seeds, shared)`` gives each spec's resampled
    task or the ParameterError that refused it.  ``seeded``: the runner
    reads the seeds.  ``oversamples``: each result is the task followed by
    new minority rows.  ``run_extended(task, outputs, specs, shared)``, when
    given, runs spec i on ``outputs[i]``, each of them ``task`` followed by
    new minority rows, sharing the work that depends on ``task`` alone."""

    params: dict
    run_grid: Callable[[BinaryTask, list, list, dict | None], list]
    seeded: bool = False
    oversamples: bool = False
    run_extended: Callable[[BinaryTask, list, list, dict | None], list] | None = None


# The runners look the index functions up by name when called, so that
# replacing a module attribute (as a tracer does) reaches every spec, save the
# cleaning stages that ``run_extended`` runs over a batch of pipeline outputs.
METHODS = {
    "none": Method({}, _kept_once(lambda task, args: np.arange(task.n_majority))),
    "rus": Method(
        {"ratio": REQUIRED},
        _drawn(lambda task, args, seed, shared: _kept(
            task, rus_kept_indices(task, **args, seed=seed)
        )),
        seeded=True,
    ),
    "ros": Method(
        {"ratio": REQUIRED},
        _drawn(lambda task, args, seed, shared: _copied(
            task, ros_picked_indices(task, **args, seed=seed)
        )),
        seeded=True,
        oversamples=True,
    ),
    "smote": Method(
        {"k": 5, "ratio": REQUIRED},
        _drawn(lambda task, args, seed, shared: _synthesized(
            task, smote_synthetic(task, **args, seed=seed, shared=shared)
        )),
        seeded=True,
        oversamples=True,
    ),
    "enn": Method(
        {"k": 3},
        _kept_once(lambda task, args: enn_kept_indices(task, **args)),
        run_extended=_enn_extended,
    ),
    "renn": Method({"k": 3}, _kept_once(lambda task, args: renn_kept_indices(task, **args))),
    "tomek": Method(
        {}, _kept_once(lambda task, args: tomek_kept_indices(task)), run_extended=_tomek_extended
    ),
    "near_miss": Method(
        {"k": 3, "ratio": 1.0},
        _kept_once(lambda task, args: near_miss_kept_indices(task, **args)),
    ),
    "rbu": Method(
        {"gamma": REQUIRED, "ratio": REQUIRED, "tie_rule": TIE_LOWEST_INDEX, "tie_seed": None},
        _rbu_grid,
    ),
    "pipeline": Method({}, _pipeline_grid, seeded=True),
}


def run_grid(task: BinaryTask, specs, seeds, shared=None) -> list:
    """Run specs of one method on ``task``, spec i drawing from ``seeds[i]``
    (or from its own ``seed`` parameter): for each spec, the resampled task
    or the ParameterError that refused it.

    Each result equals ``apply_resample(task, specs[i], seeds[i])``, and the
    grid shares what depends on ``task`` alone: one SMOTE neighbour table,
    one RBU removal order per gamma, the cleaning stages of all its
    pipelines in batches.  ``shared`` extends that sharing to other grids
    run on the same task (see ``apply_resample``).  Any exception other
    than ParameterError is raised for the whole grid.
    """
    if not specs:
        return []
    method = specs[0].method
    if any(spec.method != method for spec in specs):
        raise ParameterError("a grid holds specs of one method")
    seeds = [spec.params.get("seed", seed) for spec, seed in zip(specs, seeds)]
    return METHODS[method].run_grid(task, specs, seeds, shared)


# Where ``shared`` holds the planned calls of ``plan_grid``.
_PLANNED = ("planned",)


def plan_grid(specs, seeds, shared) -> None:
    """Plan the calls ``apply_resample(task, specs[i], seeds[i], shared)``
    on the task that owns ``shared``.

    The first planned call of a grid, the planned specs of one method (of
    one list of stage methods, for pipelines), runs the whole grid as one
    ``run_grid`` call, and ``shared`` keeps each result until its own call
    takes it.  Every call returns or raises what it would unplanned, except
    that an exception other than ParameterError is raised by every call of
    its grid.
    """
    planned = shared.setdefault(_PLANNED, {})
    grids = {}
    for spec, seed in zip(specs, seeds):
        kind = (spec.method, *(stage.method for stage in spec.stages))
        grid_specs, grid_seeds = grids.setdefault(kind, ([], []))
        grid_specs.append(spec)
        grid_seeds.append(seed)
        # The grid holds the spec, so no other object takes its id meanwhile.
        planned[id(spec), seed] = grids[kind]


def _planned(task, spec, seed, shared):
    """The result of a call planned by ``plan_grid``, or None."""
    planned = shared.get(_PLANNED) if shared is not None else None
    if not planned:
        return None
    key = id(spec), seed
    result = planned.pop(key, None)
    if isinstance(result, tuple):  # the first call of its grid
        specs, seeds = result
        try:
            results = run_grid(task, specs, seeds, shared)
        except Exception as error:
            results = [error] * len(specs)
        keys = [(id(grid_spec), grid_seed) for grid_spec, grid_seed in zip(specs, seeds)]
        planned.update(zip(keys, results))
        result = planned.pop(key)
    return result


def apply_resample(task: BinaryTask, spec: ResampleSpec, seed=None, shared=None) -> BinaryTask:
    """Run a spec and return the resampled task: ``run_grid`` with one spec,
    or the grid that ``plan_grid`` planned it in.  ``seed`` must be None or
    a non-negative integer.

    The result's ``source_rows`` is each point's dataset row, -1 for a point
    the spec made, or None when ``task`` has none.  ``shared`` is a dict
    owned by one training task (one inner fold of parameter selection).
    Runners keep there what depends on that task alone (RBU removal orders,
    SMOTE's neighbour table, the task's own neighbour table that pipelines
    clean with, the results of the deterministic methods), so that other
    specs run on the same task reuse it; results are identical with or
    without it.
    """
    check_seed(seed)
    result = _planned(task, spec, seed, shared)
    if result is None:
        (result,) = run_grid(task, [spec], [seed], shared)
    if isinstance(result, Exception):
        raise result
    return result
