"""Radial-based undersampling: greedy removal by maximal mutual class potential.

The majority point whose cached potential is currently highest is removed,
its RBF contribution is subtracted from the remaining potentials, and the
loop repeats until the requested fraction of the majority excess is gone.
A fractional removal threshold takes its ceiling (the loop keeps removing
while the removed count is strictly below the threshold).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataio import BinaryTask
from .errors import ParameterError
from .potential import TIE_LOWEST_INDEX, TIE_RULES, TIE_SEEDED_RANDOM, check_gamma, init_field


@dataclass(frozen=True)
class RbuParams:
    """Spread gamma, fraction of the majority excess to remove, tie handling."""

    gamma: float
    ratio: float
    tie_rule: str = TIE_LOWEST_INDEX
    tie_seed: int | None = None

    def __post_init__(self):
        check_gamma(self.gamma)
        if not 0.0 <= self.ratio <= 1.0:
            raise ParameterError(f"ratio must lie in [0, 1], got {self.ratio}")
        if self.tie_rule not in TIE_RULES:
            raise ParameterError(f"unknown tie rule {self.tie_rule!r}")
        if self.tie_rule == TIE_SEEDED_RANDOM and self.tie_seed is None:
            raise ParameterError("seeded-random tie rule requires tie_seed")


def removal_count(n_majority: int, n_minority: int, ratio: float) -> int:
    """Number of majority points the greedy loop removes."""
    return math.ceil(ratio * (n_majority - n_minority))


def rbu_removal_order(task: BinaryTask, params: RbuParams) -> np.ndarray:
    """Original majority indices in the order the greedy loop removes them."""
    if task.n_minority < 1:
        raise ParameterError("minority set must hold at least one point")
    if task.n_majority < task.n_minority:
        raise ParameterError("majority set smaller than minority set")
    n_remove = removal_count(task.n_majority, task.n_minority, params.ratio)
    if n_remove == 0:
        return np.empty(0, dtype=np.intp)

    rng = None
    if params.tie_rule == TIE_SEEDED_RANDOM:
        rng = np.random.default_rng(params.tie_seed)
    field = init_field(task, params.gamma)
    removed = np.empty(n_remove, dtype=np.intp)
    for step in range(n_remove):
        point, index = field.pop_max(tie_rule=params.tie_rule, rng=rng)
        removed[step] = index
        field.subtract(point)
    return removed


def rbu_kept_indices(task: BinaryTask, params: RbuParams) -> np.ndarray:
    """Original indices of the surviving majority points, ascending."""
    removed = rbu_removal_order(task, params)
    keep = np.ones(task.n_majority, dtype=bool)
    keep[removed] = False
    return np.flatnonzero(keep)


def rbu_undersample(task: BinaryTask, params: RbuParams) -> np.ndarray:
    """Reduced majority set; surviving points keep their relative order."""
    return task.majority[rbu_kept_indices(task, params)]
