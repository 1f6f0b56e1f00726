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

# A scaled distance |p - x| / gamma beyond this has an RBF of exactly 0.0.
_EXP_REACH = math.sqrt(-_EXP_FLOOR)

# A block with at most this share of arguments above _EXP_FLOOR has only
# those gathered and exponentiated; a denser one takes the masked passes.
# timeit, one 21 x 6000 block, masked / gathered: 3-4% live (the rbu-large
# task at gamma 0.1) 690-820 / 400-510 us; live entries placed at random,
# 10% live 510 / 385 us, 20% live 486 / 543 us; 81-91% live (gamma 0.3)
# 1,340-1,680 / 2,160-4,120 us.
_GATHER_SHARE = 0.15

# Widened by the slack below, a bound on every RBF the greedy update would
# subtract is kept only while that slack is under this: an argument at or
# below _EXP_FLOOR then stays below -745.14, whose exp is exactly 0.0.
_SLACK_LIMIT = 0.03

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


def _exp_in_place(arg: np.ndarray, on_gather=None) -> np.ndarray:
    """``np.exp(arg)`` bit for bit, written into ``arg``.

    When some arguments lie at or below ``_EXP_FLOOR``, numpy's slow
    underflow path is never taken: if few of the others are left, only they
    are exponentiated, into a zeroed block, and ``on_gather``, if given, is
    called with their sorted flat indices and their values, an array it may
    overwrite; else the dead ones are set to -0.0 before the call and their
    results (1.0) multiplied by zero after it.
    """
    # Every argument is <= 0, so the initial value only lets an empty block through.
    if arg.min(initial=0.0) > _EXP_FLOOR:
        return np.exp(arg, out=arg)
    live = arg > _EXP_FLOOR
    if np.count_nonzero(live) <= _GATHER_SHARE * arg.size:
        picks = np.flatnonzero(live)
        values = np.exp(arg.take(picks))
        arg.fill(0.0)
        arg.put(picks, values)
        if on_gather is not None:
            on_gather(picks, values)
        return arg
    np.maximum(arg, _EXP_FLOOR, out=arg)  # -inf times zero would be NaN
    arg *= live
    np.exp(arg, out=arg)
    arg *= live
    return arg


def _rbf_sums(queries: np.ndarray, points: np.ndarray, inv_g2: float, row_max=None) -> np.ndarray:
    """Sum of RBF contributions of ``points`` at each query, in blocks;
    ``inv_g2`` is ``check_gamma(gamma)``.

    With ``queries`` and ``points`` the same array, ``row_max`` may be an
    array of one entry per point: the rows of blocks that take
    ``_exp_in_place``'s gather path get their ``_off_diagonal_max``, and
    the others are left as they are, so dense blocks pay no extra pass.
    """
    scale = -inv_g2
    out = np.empty(len(queries))

    def body(start, arg):
        # A d^2 / gamma^2 past the float range becomes -inf, its exact limit.
        with np.errstate(over="ignore"):
            arg *= scale
        rows = slice(start, start + len(arg))
        on_gather = None
        if row_max is not None:
            def on_gather(picks, values):
                row_max[rows] = _off_diagonal_max(picks, values, start, arg.shape)

        out[rows] = _exp_in_place(arg, on_gather).sum(axis=1)

    for_each_block(queries, points, body, "sqeuclidean")
    return out


def _off_diagonal_max(picks, values, start, shape) -> np.ndarray:
    """Largest of ``values``, at the sorted flat indices ``picks`` of the
    live entries of a block of ``shape`` whose row r is point ``start + r``,
    in each row off its own column; -inf for a row with no such entry.
    Overwrites ``values``."""
    rows, width = shape
    row_starts = np.arange(0, rows * width, width)
    # A point's squared distance to itself is 0.0, so its own entry is always
    # live and every row holds at least that one.
    own = np.searchsorted(picks, row_starts + np.arange(start, start + rows))
    values[own] = -math.inf
    return np.maximum.reduceat(values, np.searchsorted(picks, row_starts))


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
    contribution, taken on distances between points centred on their mean.
    Removed points keep ``-inf``; :attr:`phi` reads the remaining potentials.

    A field from :func:`init_field` also keeps, per point, an upper bound on
    every RBF that point's removal subtracts (see :func:`_quiet_bounds`), so
    that removals which provably change no potential skip the update.

    Mutable; owned by one logical thread at a time.
    """

    def __init__(self, points: np.ndarray, phi: np.ndarray, gamma: float):
        """Raises ParameterError unless ``points`` is a 2-D array with one row
        per entry of the finite potentials ``phi``, and for coordinates that
        ``init_field`` refuses."""
        self._inv_g2 = check_gamma(gamma)
        points = np.asarray(points, dtype=np.float64)
        phi = np.asarray(phi, dtype=np.float64)
        if points.ndim != 2 or phi.shape != (len(points),):
            raise ParameterError(
                f"need 2-D points with one row per potential, got {points.shape} and {phi.shape}"
            )
        if not np.isfinite(phi).all():
            raise ParameterError("potentials must be finite")
        self._phi = phi
        self._centred = _centred(self._inv_g2, points)[0]
        self._quiet = np.full(len(phi), math.inf)
        self.removed_count = 0

    @classmethod
    def _of_centred(cls, centred: np.ndarray, phi: np.ndarray, inv_g2: float, quiet: np.ndarray):
        """The field of majority points already centred and checked by
        :func:`_centred`, with their potentials ``phi`` and bounds ``quiet``
        from :func:`_quiet_bounds`, taken over uncopied."""
        field = object.__new__(cls)
        field._phi, field._centred, field._inv_g2 = phi, centred, inv_g2
        field._quiet = quiet
        field.removed_count = 0
        return field

    def __len__(self) -> int:
        return len(self._phi) - self.removed_count

    @property
    def phi(self) -> np.ndarray:
        """Potentials of the remaining points, in original order."""
        return self._phi[self._phi > -np.inf]

    def _picker(self, tie_rule, rng):
        """Function giving the index of a maximal potential under ``tie_rule``:
        the lowest, or a uniformly random one drawn from ``rng``."""
        if tie_rule == TIE_LOWEST_INDEX:
            return self._phi.argmax
        if tie_rule == TIE_SEEDED_RANDOM:
            if rng is None:
                raise ParameterError("seeded-random tie rule requires an rng")
            phi = self._phi

            def pick():
                top = np.flatnonzero(phi == phi.max())
                # Choosing from one candidate draws nothing from rng.
                return top[0] if len(top) == 1 else rng.choice(top)

            return pick
        raise ParameterError(f"unknown tie rule {tie_rule!r}")

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

        A quiet removal, whose point's bound is 0 or below ``_QUIET_SHARE``
        times every remaining |potential|, would change no potential by a
        bit, so it skips the update.  The smallest |potential| is taken again
        only after an update has run.
        """
        count = integer_k(count, "count")
        if count < 0:
            raise ParameterError(f"count must be >= 0, got {count}")
        if count > len(self):
            raise ParameterError("cannot pop from an empty potential field")
        pick = self._picker(tie_rule, rng)
        phi, centred, inv_g2 = self._phi, self._centred, self._inv_g2
        scaled_t = np.ascontiguousarray(centred.T * (2.0 * inv_g2))
        scaled_sq = inv_g2 * np.einsum("ij,ij->i", centred, centred)
        reach = math.sqrt(scaled_sq.max(initial=0.0))
        arg, zeros = np.empty(len(phi)), np.zeros(len(phi))
        quiet, quiet_below, inf = self._quiet.tolist(), None, math.inf
        removed = []
        for _ in range(count):
            index = pick()
            removed.append(index)
            phi[index] = -inf
            bound = quiet[index]
            if bound < inf:
                if not bound:
                    continue
                if quiet_below is None:
                    # Removed points read inf here, so they never set the minimum.
                    quiet_below = _QUIET_SHARE * float(np.abs(phi, out=arg).min())
                if bound < quiet_below:
                    continue
            quiet_below = None
            x = centred[index]
            x_sq = inv_g2 * float(x.dot(x))
            # -||p - x||^2 / gamma^2 by the dot-product identity.  Centred
            # norms stay near the distances themselves, so little is lost to
            # cancellation; clamp the tiny positives it can leave.
            np.matmul(x, scaled_t, out=arg)
            arg -= scaled_sq
            arg -= x_sq
            np.minimum(arg, zeros, out=arg)
            # No argument is below -(reach + |x| / gamma)^2.  Those at or
            # below _EXP_FLOOR have an RBF of exactly 0 and leave their
            # potential as it is, so only the others are exponentiated.
            if reach + math.sqrt(x_sq) < _EXP_REACH or arg.min() > _EXP_FLOOR:
                phi -= np.exp(arg, out=arg)
            else:
                live = np.flatnonzero(arg > _EXP_FLOOR)
                phi[live] -= np.exp(arg[live])
        self.removed_count += count
        return np.array(removed, dtype=np.intp)


def _centred(inv_g2: float, majority: np.ndarray, *others: np.ndarray) -> list:
    """``majority`` and ``others`` minus the majority mean.

    Raises ParameterError for NaN or infinite coordinates and for points so
    far from that mean, in units of gamma, that the greedy loop would
    overflow: it works with coordinates times 2/gamma^2 and with dot-product
    terms of up to 4 max|p|^2 / gamma^2.
    """
    check_finite(majority, *others)
    with np.errstate(over="ignore", invalid="ignore"):
        centre = majority.mean(axis=0) if len(majority) else np.zeros(majority.shape[1])
        centred = [points - centre for points in (majority, *others)]
        largest = np.max([np.einsum("ij,ij->i", c, c).max(initial=0.0) for c in centred])
        headroom = 4.0 * inv_g2 * np.maximum(largest, 0.5)
    if not np.isfinite(headroom):
        raise ParameterError("coordinates too large: centred squared norms overflow")
    return centred


def _quiet_bounds(row_max: np.ndarray, centred: np.ndarray, inv_g2: float) -> np.ndarray:
    """For each centred majority point, an upper bound on every RBF that
    :meth:`PotentialField.pop_greedy` subtracts from another potential when
    it removes the point; ``row_max`` is the largest such RBF by ``cdist``
    (``_rbf_sums``), -inf for none above ``_EXP_FLOOR``, or +inf.

    The update's exponent, by the dot-product identity, and ``cdist``'s lie
    within a slack of 8 (m + 4) float64 epsilons times the largest scaled
    squared norm S: the two rounding-error bounds, (4m + 11) and (4m + 12)
    half-epsilons times S, doubled.  The bound is ``row_max`` plus two of
    the smallest subnormals (``exp``'s own rounding in both), times
    exp(slack) and a margin for these products; 0 for -inf, as every
    exponent at or below ``_EXP_FLOOR`` then stays where ``exp`` is 0.0.
    A slack of ``_SLACK_LIMIT`` or more makes every bound +inf.
    """
    squares = np.einsum("ij,ij->i", centred, centred).max(initial=0.0)
    slack = 8.0 * (centred.shape[1] + 4) * 2.0**-52 * inv_g2 * float(squares)
    if not slack < _SLACK_LIMIT:
        return np.full(len(row_max), math.inf)
    bounds = (row_max + 2.0**-1073) * (math.exp(slack) * (1.0 + 2.0**-40))
    return np.maximum(bounds, 0.0, out=bounds)


def init_field(task: BinaryTask, gamma: float) -> PotentialField:
    """Potential of every majority point against the full original task.

    Raises ParameterError for NaN or infinite coordinates and for points so
    far from the majority mean, in units of gamma, that the field's scaled
    squared norms overflow.
    """
    inv_g2 = check_gamma(gamma)
    majority = np.asarray(task.majority, dtype=np.float64)
    centred, minority = _centred(inv_g2, majority, task.minority)
    row_max = np.full(len(centred), math.inf)
    # _potential's arithmetic, with the majority block's row maxima kept.
    phi = _rbf_sums(centred, centred, inv_g2, row_max) - _rbf_sums(centred, minority, inv_g2)
    quiet = _quiet_bounds(row_max, centred, inv_g2)
    return PotentialField._of_centred(centred, phi, inv_g2, quiet)


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
    return PotentialGrid(bounds, int(resolution), phi.reshape(resolution, resolution))
