"""Gaussian mutual class potential and the incrementally updatable field.

The potential at a point is the sum of Gaussian RBF contributions from the
majority points minus the contributions from the minority points, with a
single spread parameter gamma shared by every RBF.  A PotentialField caches
the potential of every majority point and supports cheap subtraction of one
point's contribution, which is what makes greedy undersampling quadratic
instead of cubic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .dataio import BinaryTask
from .errors import ParameterError
from .neighbors import check_finite, distance_blocks

# exp(x) is exactly 0.0 for every x below this, but numpy reaches that zero
# on a path about 8x slower than the ordinary one.
_EXP_FLOOR = -745.2

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


@dataclass(frozen=True)
class RbfParams:
    """Spread of a single radial basis function."""

    gamma: float

    def __post_init__(self):
        check_gamma(self.gamma)


def rbf_value(distance: float, gamma: float) -> float:
    """Single RBF contribution exp(-(distance/gamma)^2); lies in [0, 1]."""
    check_gamma(gamma)
    if not distance >= 0:
        raise ParameterError(f"distance must be >= 0, got {distance}")
    try:
        return math.exp(-((float(distance) / float(gamma)) ** 2))
    except OverflowError:  # (distance/gamma)^2 past the float range: exp underflows to 0
        return 0.0


def _exp_in_place(arg: np.ndarray) -> np.ndarray:
    """``np.exp(arg)`` bit for bit, written into ``arg``.

    When some arguments lie at or below ``_EXP_FLOOR``, those are set to -0.0
    before the call and their results (1.0) multiplied by zero after it, so
    numpy's slow underflow path is never taken.
    """
    # Every argument is <= 0, so the initial value only lets an empty block through.
    if arg.min(initial=0.0) > _EXP_FLOOR:
        return np.exp(arg, out=arg)
    live = arg > _EXP_FLOOR
    np.maximum(arg, _EXP_FLOOR, out=arg)  # -inf times zero would be NaN
    arg *= live
    np.exp(arg, out=arg)
    arg *= live
    return arg


def _rbf_sums(queries: np.ndarray, points: np.ndarray, inv_g2: float) -> np.ndarray:
    """Sum of RBF contributions of ``points`` at each query, in blocks;
    ``inv_g2`` is ``check_gamma(gamma)``."""
    scale = -inv_g2
    out = np.empty(len(queries))
    # A d^2 / gamma^2 past the float range becomes -inf, its exact limit.
    with np.errstate(over="ignore"):
        for start, arg in distance_blocks(queries, points, "sqeuclidean"):
            arg *= scale
            out[start : start + len(arg)] = _exp_in_place(arg).sum(axis=1)
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
    return float(_potential(x[None, :], task.majority, task.minority, inv_g2)[0])


class PotentialField:
    """Per-majority-point potentials with incremental subtraction.

    The field is initialized against the full original majority set (each
    point therefore includes its own unit self-contribution) and the full
    minority set.  Removing a point never recomputes anything: remaining
    potentials only ever shrink by that point's RBF contribution.  Removed
    points keep ``-inf`` as their potential.

    Distances are taken between points centred on their mean; :meth:`pop_max`,
    :meth:`subtract` and :attr:`points` use the caller's coordinates.

    Mutable; owned by one logical thread at a time.
    """

    def __init__(self, points: np.ndarray, phi: np.ndarray, gamma: float):
        self._inv_g2 = check_gamma(gamma)
        if not np.isfinite(phi).all():
            raise ParameterError("potentials must be finite")
        self._points = points
        self._phi = phi
        self._centre = _mean(points)
        centred = points - self._centre
        self._scaled_t = np.ascontiguousarray(centred.T * (2.0 * self._inv_g2))
        self._scaled_sq = self._inv_g2 * np.einsum("ij,ij->i", centred, centred)
        self._reach = math.sqrt(self._scaled_sq.max(initial=0.0))
        self.gamma = gamma
        self.removed_count = 0

    def __len__(self) -> int:
        return len(self._phi) - self.removed_count

    @property
    def _alive(self) -> np.ndarray:
        return self._phi > -np.inf

    @property
    def points(self) -> np.ndarray:
        """Remaining points, original order."""
        return self._points[self._alive]

    @property
    def phi(self) -> np.ndarray:
        """Potentials of the remaining points, aligned with :attr:`points`."""
        return self._phi[self._alive]

    @property
    def alive_indices(self) -> np.ndarray:
        """Original indices of the remaining points, ascending."""
        return np.flatnonzero(self._alive)

    def pop_max(self, tie_rule=TIE_LOWEST_INDEX, rng=None):
        """Remove and return ``(point, original_index)`` with maximal potential.

        Ties are broken by the lowest original index, or uniformly at random
        when ``tie_rule`` is ``"seeded-random"`` (then ``rng`` is required).
        """
        if self.removed_count == len(self._phi):
            raise ParameterError("cannot pop from an empty potential field")
        if tie_rule == TIE_LOWEST_INDEX:
            index = int(self._phi.argmax())
        elif tie_rule == TIE_SEEDED_RANDOM:
            if rng is None:
                raise ParameterError("seeded-random tie rule requires an rng")
            candidates = np.flatnonzero(self._phi == self._phi.max())
            index = int(rng.choice(candidates))
        else:
            raise ParameterError(f"unknown tie rule {tie_rule!r}")
        self._phi[index] = -np.inf
        self.removed_count += 1
        return self._points[index].copy(), index

    def subtract(self, removed: np.ndarray) -> None:
        """Subtract one removed point's RBF contribution from every remaining potential."""
        removed = np.asarray(removed, dtype=np.float64)
        if removed.shape != (self._points.shape[1],):
            raise ParameterError(
                f"point has shape {removed.shape}, field dimensionality is "
                f"{self._points.shape[1]}"
            )
        x = removed - self._centre
        x_sq = self._inv_g2 * float(x @ x)
        # -||p - x||^2 / gamma^2 by the dot-product identity.  Centred norms
        # stay near the distances themselves, so little is lost to
        # cancellation; clamp the tiny positives it can leave.
        arg = x @ self._scaled_t
        arg -= self._scaled_sq
        arg -= x_sq
        np.minimum(arg, 0.0, out=arg)
        # |p - x| <= |p| + |x| and reach is the largest |p| / gamma, so no
        # argument is below -(reach + |x| / gamma)^2.
        if (self._reach + math.sqrt(x_sq)) ** 2 < -_EXP_FLOOR:
            np.exp(arg, out=arg)
        else:
            _exp_in_place(arg)
        self._phi -= arg


def _mean(points: np.ndarray) -> np.ndarray:
    return points.mean(axis=0) if len(points) else np.zeros(points.shape[1])


def init_field(task: BinaryTask, gamma: float) -> PotentialField:
    """Potential of every majority point against the full original task.

    Raises ParameterError for NaN or infinite coordinates and for points so
    far from the majority mean, in units of gamma, that the field's scaled
    squared norms overflow.
    """
    inv_g2 = check_gamma(gamma)
    majority = task.majority.astype(np.float64, copy=True)
    check_finite(majority, task.minority)
    with np.errstate(over="ignore", invalid="ignore"):
        centre = _mean(majority)
        centred = (majority - centre, task.minority - centre)
        largest = np.max([np.einsum("ij,ij->i", c, c).max(initial=0.0) for c in centred])
        # PotentialField.subtract works with coordinates times 2/gamma^2 and
        # with dot-product terms of up to 4 max|p|^2 / gamma^2.
        headroom = 4.0 * inv_g2 * np.maximum(largest, 0.5)
    if not np.isfinite(headroom):
        raise ParameterError("coordinates too large: centred squared norms overflow")
    # The centred majority against the centred majority and minority.
    phi = _potential(centred[0], *centred, inv_g2)
    return PotentialField(majority, phi, gamma)


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
        (x_lo, x_hi), (y_lo, y_hi) = self.bounds
        step_x = (x_hi - x_lo) / self.resolution
        step_y = (y_hi - y_lo) / self.resolution
        xs = x_lo + (np.arange(self.resolution) + 0.5) * step_x
        ys = y_lo + (np.arange(self.resolution) + 0.5) * step_y
        return xs, ys

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
    (x_lo, x_hi), (y_lo, y_hi) = bounds
    if not (x_hi > x_lo and y_hi > y_lo):
        raise ParameterError("bounds must satisfy lo < hi on both axes")
    step_x, step_y = (x_hi - x_lo) / resolution, (y_hi - y_lo) / resolution
    if not np.isfinite([x_lo, x_hi, y_lo, y_hi, step_x, step_y]).all():
        raise ParameterError("bounds and their cell widths must be finite")

    xs = x_lo + (np.arange(resolution) + 0.5) * step_x
    ys = y_lo + (np.arange(resolution) + 0.5) * step_y
    cells = np.stack([np.repeat(xs, resolution), np.tile(ys, resolution)], axis=1)
    phi = _potential(cells, task.majority, task.minority, inv_g2)
    return PotentialGrid(
        bounds=((float(x_lo), float(x_hi)), (float(y_lo), float(y_hi))),
        resolution=int(resolution),
        values=phi.reshape(resolution, resolution),
    )
