"""Gaussian mutual class potential and the incrementally updatable field.

The potential at a point is the sum of Gaussian RBF contributions from the
majority points minus the contributions from the minority points, with a
single spread parameter gamma shared by every RBF.  A PotentialField caches
the potential of every majority point and runs the greedy removal by
subtracting each removed point's contribution, which is what makes greedy
undersampling quadratic instead of cubic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .dataio import BinaryTask
from .errors import ParameterError
from .neighbors import check_finite, for_each_block, integer_k

# exp(x) is exactly 0.0 for every x below this, but numpy reaches that zero
# on a path about 8x slower than the ordinary one.
_EXP_FLOOR = -745.2

# A block with at most this share of arguments above _EXP_FLOOR has only
# those gathered and exponentiated; a denser one takes the masked passes.
# timeit, one 21 x 6000 block, masked / gathered: 3-4% live (the rbu-large
# task at gamma 0.1) 690-820 / 400-510 us; live entries placed at random,
# 10% live 510 / 385 us, 20% live 486 / 543 us; 81-91% live (gamma 0.3)
# 1,340-1,680 / 2,160-4,120 us.
_GATHER_SHARE = 0.15

# The greedy loop drops removed rows from its stored rows once they make up
# this share of them and number at least _STALE_MIN.  Per step at gamma 1,
# dropping / not: 1,500 rows of 8-D points 11.7 / 13.2 us, 40 rows of 5-D
# points 7.8 / 6.4 us (best of 5; x86-64, numpy 2.4, scipy 1.17).
_STALE_SHARE = 1 / 8
_STALE_MIN = 64

# With at most _AHEAD_ROWS rows stored, a row's call costs more than the row,
# so an update also takes the rows of the _AHEAD likeliest next picks.  Per
# step, alone / with 15 ahead: 1,500 to 500 rows of 8-D points at gamma 1,
# 14.6 / 12.2 us; 25-60 rows in 6-D at gamma 0.1, 1 and 10, 12.4 / 5.1,
# 6.5 / 4.6 and 6.6 / 4.8 us; 300 steps from 4,000 rows, 25.8 / 29.3 us.
_AHEAD = 15
_AHEAD_ROWS = 2048

# Subtracting less than this share of |phi| rounds back to phi: it is below
# half an ulp of phi, or of the next float toward zero at a power of two.
_QUIET_SHARE = 2.0**-54

TIE_LOWEST_INDEX = "lowest-index"
TIE_SEEDED_RANDOM = "seeded-random"
TIE_RULES = (TIE_LOWEST_INDEX, TIE_SEEDED_RANDOM)


def check_gamma(gamma) -> float:
    """``1 / gamma**2``, the scale of every RBF of spread ``gamma``.

    Raises ParameterError unless that scale is a finite positive float, so
    gamma must be > 0 and its square must neither underflow nor overflow.
    """
    if not gamma > 0:
        raise ParameterError(f"gamma must be > 0, got {gamma}")
    square = float(gamma) * float(gamma)
    if not (0 < square < math.inf and 1.0 / square < math.inf):
        raise ParameterError(f"gamma must have a finite, nonzero 1/gamma^2, got {gamma}")
    return 1.0 / square


def _exp_in_place(arg: np.ndarray) -> np.ndarray:
    """``np.exp(arg)`` bit for bit, written into ``arg``.

    When some arguments lie at or below ``_EXP_FLOOR``, numpy's slow
    underflow path is never taken: if few of the others are left, only they
    are exponentiated, into a zeroed block; else the dead ones are set to
    -0.0 before the call and their results (1.0) multiplied by zero after it.
    """
    # The smallest argument, read by argmin, which skips min's Python wrapper:
    # about 1 us of a greedy step's row (numpy 2.4).
    if not arg.size or arg.item(arg.argmin()) > _EXP_FLOOR:
        return np.exp(arg, out=arg)
    live = arg > _EXP_FLOOR
    if np.count_nonzero(live) <= _GATHER_SHARE * arg.size:
        picks = np.flatnonzero(live)
        values = np.exp(arg.take(picks))
        arg.fill(0.0)
        arg.put(picks, values)
        return arg
    np.maximum(arg, _EXP_FLOOR, out=arg)  # -inf times zero would be NaN
    arg *= live
    np.exp(arg, out=arg)
    arg *= live
    return arg


def _rbf_blocks(queries, points, inv_g2: float, body) -> None:
    """Call ``body(start, rbf)`` for blocks of query rows that tile
    ``queries``, ``rbf`` holding the RBF ``exp(-d^2 / gamma^2)`` of each
    query of the block at each point; ``inv_g2`` is ``check_gamma(gamma)``.

    Every RBF of this module is computed here, from ``for_each_block``'s
    squared distances, whose rules ``body`` follows: it writes only the rows
    of its own block, and may run on another thread.
    """
    scale = -inv_g2

    def rbf_body(start, arg):
        # A d^2 / gamma^2 past the float range becomes -inf, its exact limit.
        with np.errstate(over="ignore"):
            arg *= scale
        body(start, _exp_in_place(arg))

    for_each_block(queries, points, rbf_body, "sqeuclidean")


def _rbf_sums(queries: np.ndarray, points: np.ndarray, inv_g2: float, row_max=None) -> np.ndarray:
    """Sum of RBF contributions of ``points`` at each query; ``inv_g2`` is
    ``check_gamma(gamma)``.

    With ``queries`` and ``points`` the same array, ``row_max`` may be an
    array of one entry per point, which receives each point's largest RBF
    at the other points: 0.0 where there is none.
    """
    out = np.empty(len(queries))

    def body(start, rbf):
        rows = slice(start, start + len(rbf))
        out[rows] = rbf.sum(axis=1)
        if row_max is not None:
            own = np.arange(len(rbf))
            rbf[own, own + start] = 0.0
            row_max[rows] = rbf.max(axis=1)

    _rbf_blocks(queries, points, inv_g2, body)
    return out


def _potential(queries, majority, minority, inv_g2: float) -> np.ndarray:
    """Mutual class potential at each query: majority minus minority RBF sums."""
    return _rbf_sums(queries, majority, inv_g2) - _rbf_sums(queries, minority, inv_g2)


def mutual_potential(x, task: BinaryTask, gamma: float) -> float:
    """Mutual class potential at ``x``: majority RBF sum minus minority RBF sum.

    Raises ParameterError for NaN or infinite coordinates.
    """
    inv_g2 = check_gamma(gamma)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (task.m,):
        raise ParameterError(f"point has shape {x.shape}, task dimensionality is {task.m}")
    check_finite(x, task.points)
    return float(_potential(x[None, :], task.majority, task.minority, inv_g2)[0])


class PotentialField:
    """Per-majority-point potentials for the greedy removal loop.

    The field is initialized against the full original majority set (each
    point therefore includes its own unit self-contribution) and the full
    minority set.  :meth:`pop_greedy` removes points without recomputing
    anything: the others only shrink by each removed point's RBF
    contribution, computed by ``_rbf_blocks`` as in :func:`init_field`.
    Removed points keep ``-inf``; :attr:`phi` reads the remaining potentials.

    Each point also has a quiet bound: the largest RBF that its removal
    subtracts from another potential, so that removals which provably
    change no potential skip the update.  A bound that could never prove
    that is +inf, as is every bound of a field not built by
    :func:`init_field`.

    Mutable; owned by one logical thread at a time.
    """

    def __init__(self, points: np.ndarray, phi: np.ndarray, gamma: float):
        """Raises ParameterError unless ``points`` is a 2-D array of finite
        coordinates with one row per entry of the finite potentials ``phi``."""
        inv_g2 = check_gamma(gamma)
        points = np.asarray(points, dtype=np.float64)
        phi = np.asarray(phi, dtype=np.float64)
        if points.ndim != 2 or phi.shape != (len(points),):
            raise ParameterError(
                f"need 2-D points with one row per potential, got {points.shape} and {phi.shape}"
            )
        if not np.isfinite(phi).all():
            raise ParameterError("potentials must be finite")
        check_finite(points)
        self._phi, self._inv_g2, self._quiet = phi, inv_g2, np.full(len(phi), math.inf)
        # The stored rows: original indices, ascending, and their points.
        # Removed rows are dropped from them now and then (see pop_greedy).
        self._rows, self._points = np.arange(len(phi)), points
        self.removed_count = 0

    def __len__(self) -> int:
        return len(self._phi) - self.removed_count

    @property
    def phi(self) -> np.ndarray:
        """Potentials of the remaining points, in original order."""
        return self._phi[self._phi > -np.inf]

    def pop_greedy(self, count: int, tie_rule=TIE_LOWEST_INDEX, rng=None) -> np.ndarray:
        """Original indices of ``count`` points removed one by one, each with
        maximal potential and its RBF contribution subtracted from every
        potential before the next pick.

        Ties are broken by the lowest original index, or uniformly at random
        when ``tie_rule`` is ``"seeded-random"`` (then ``rng`` is required).
        ``count`` calls with a count of 1 remove the same points, and leave the
        same potentials, bit for bit, as one call with ``count``.  ``count``
        follows ``integer_k``'s rule: an integral float runs as an int, and a
        bool or a non-integral value raises ParameterError.

        Each update takes its point's row of RBFs from ``_rbf_blocks``,
        over the stored rows only: once removed rows
        make up ``_STALE_SHARE`` of them (and at least ``_STALE_MIN``), they
        are dropped, keeping original order, so that both tie rules see the
        same candidates in the same order.  With few rows stored, the call
        also takes the rows of the ``_AHEAD`` likeliest next picks, which
        later updates use as they are.  A quiet removal, whose point's
        bound is 0 or below ``_QUIET_SHARE`` times every remaining
        |potential|, would change no potential by a bit, so it skips the
        update.  The smallest |potential| is taken again only after an
        update has run.
        """
        count = integer_k(count, "count")
        if count < 0:
            raise ParameterError(f"count must be >= 0, got {count}")
        if count > len(self):
            raise ParameterError("cannot pop from an empty potential field")
        pick = _picker(tie_rule, rng)
        rows, points, inv_g2 = self._rows, self._points, self._inv_g2
        phi = self._phi[rows]
        stale, limit = len(rows) - len(self), max(_STALE_SHARE * len(rows), _STALE_MIN)
        quiet, quiet_below, inf = self._quiet.tolist(), None, math.inf
        removed, fetched, rbf = [], {}, None

        def update(start, block):
            np.subtract(phi, block[0], out=phi)

        def fill(start, block):
            rbf[start : start + len(block)] = block

        for _ in range(count):
            at = pick(phi)
            index = int(rows[at])
            removed.append(index)
            phi[at] = -inf
            stale += 1
            bound = quiet[index]
            if bound < inf:
                if not bound:
                    continue
                if quiet_below is None:
                    # Removed points read inf here, so they never set the minimum.
                    quiet_below = _QUIET_SHARE * float(np.abs(phi).min())
                if bound < quiet_below:
                    continue
            quiet_below = None
            row = fetched.pop(at, None)
            if row is None:
                # A row stays exact until the stored rows change, which
                # happens only here.
                x, fetched = points[at : at + 1], {}
                if stale >= limit:
                    live = phi > -inf
                    rows, points, phi = rows[live], points[live], phi[live]
                    stale, limit = 0, max(_STALE_SHARE * len(rows), _STALE_MIN)
                if len(phi) > _AHEAD_ROWS:
                    _rbf_blocks(x, points, inv_g2, update)
                    continue
                top = _leaders(phi)
                rbf = np.empty((len(top) + 1, len(points)))
                _rbf_blocks(np.vstack((x, points[top])), points, inv_g2, fill)
                row, *rest = rbf
                fetched = dict(zip(top.tolist(), rest))
            np.subtract(phi, row, out=phi)
        self._phi[rows] = phi
        self._phi[removed] = -inf
        self._rows, self._points = rows, points
        self.removed_count += count
        return np.array(removed, dtype=np.intp)


def _leaders(phi):
    """Positions of the ``_AHEAD`` entries of ``phi`` that the lowest-index
    rule would pick next if none changed: the highest, ties to the lowest."""
    ahead = min(_AHEAD, len(phi))
    edge = phi[np.argpartition(phi, -ahead)[-ahead:]].min(initial=math.inf)
    above = np.flatnonzero(phi > edge)
    return np.concatenate((above, np.flatnonzero(phi == edge)[: ahead - len(above)]))


def _picker(tie_rule, rng):
    """Function giving the index of a maximal entry of an array under
    ``tie_rule``: the lowest, or a uniformly random one drawn from ``rng``.
    Raises ParameterError for an unknown rule, or a random one without rng."""
    if tie_rule == TIE_LOWEST_INDEX:
        return np.ndarray.argmax
    if tie_rule == TIE_SEEDED_RANDOM:
        if rng is None:
            raise ParameterError("seeded-random tie rule requires an rng")

        def pick(phi):
            top = np.flatnonzero(phi == phi.max())
            # Choosing from one candidate draws nothing from rng.
            return top[0] if len(top) == 1 else rng.choice(top)

        return pick
    raise ParameterError(f"unknown tie rule {tie_rule!r}")


def init_field(task: BinaryTask, gamma: float) -> PotentialField:
    """Potential of every majority point against the full original task.

    Each point's quiet bound (see :class:`PotentialField`) is its largest
    RBF at another majority point, read from the same blocks as the
    potentials, and +inf where that is at least ``2 * _QUIET_SHARE`` times
    the task's number of points: no |potential| exceeds that number, so
    such a removal could never be quiet.

    Raises ParameterError for NaN or infinite coordinates.
    """
    inv_g2 = check_gamma(gamma)
    majority = np.asarray(task.majority, dtype=np.float64)
    minority = task.minority
    check_finite(majority, minority)
    quiet = np.empty(len(majority))
    phi = _rbf_sums(majority, majority, inv_g2, quiet) - _rbf_sums(majority, minority, inv_g2)
    field = PotentialField(majority, phi, gamma)
    quiet[quiet >= 2 * _QUIET_SHARE * len(task.points)] = math.inf
    field._quiet = quiet
    return field


# ---------------------------------------------------------------------------
# Grid emission for visualization


@dataclass(frozen=True)
class PotentialGrid:
    """Potential sampled at cell centers of a regular 2-D grid.

    ``values[i, j]`` is the potential at x-center ``i`` and y-center ``j``
    (axis order follows feature order); flattening is row-major, x varying
    slowest.
    """

    bounds: tuple[tuple[float, float], tuple[float, float]]
    resolution: int
    values: np.ndarray

    def cell_centers(self):
        return _cell_centers(self.bounds, self.resolution)

    def to_csv(self) -> str:
        xs, ys = self.cell_centers()
        lines = ["x,y,phi"]
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                lines.append("%.17g,%.17g,%.17g" % (x, y, self.values[i, j]))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {
                "bounds": [list(self.bounds[0]), list(self.bounds[1])],
                "resolution": self.resolution,
                "values": self.values.tolist(),
            }
        )


def _cell_centers(bounds, resolution):
    """The x and the y centres of a ``resolution`` x ``resolution`` grid of
    equal cells over ``bounds``."""
    return tuple(lo + (np.arange(resolution) + 0.5) * ((hi - lo) / resolution) for lo, hi in bounds)


def potential_grid(task: BinaryTask, gamma: float, bounds, resolution: int) -> PotentialGrid:
    """Evaluate the mutual class potential over a 2-D grid of cell centers.

    Raises ParameterError for NaN or infinite coordinates, and for bounds that
    are not finite or whose cell widths overflow.
    """
    if task.m != 2:
        raise ParameterError(f"potential grids are defined for 2-D data, got m={task.m}")
    resolution = integer_k(resolution, "resolution")
    if resolution < 2:
        raise ParameterError(f"resolution must be >= 2, got {resolution}")
    inv_g2 = check_gamma(gamma)
    bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
    (x_lo, x_hi), (y_lo, y_hi) = bounds
    if not (x_hi > x_lo and y_hi > y_lo):
        raise ParameterError("bounds must satisfy lo < hi on both axes")
    with np.errstate(invalid="ignore"):  # -inf + inf at an infinite bound
        xs, ys = _cell_centers(bounds, resolution)
    # The centres are finite exactly when the bounds and cell widths are.
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ParameterError("bounds and their cell widths must be finite")

    cells = np.stack([np.repeat(xs, resolution), np.tile(ys, resolution)], axis=1)
    check_finite(task.points)
    phi = _potential(cells, task.majority, task.minority, inv_g2)
    return PotentialGrid(bounds, resolution, phi.reshape(resolution, resolution))
