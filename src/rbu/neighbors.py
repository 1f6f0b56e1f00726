"""Blocked pairwise distances and the nearest-neighbour search built on them.

``nearest_neighbors`` returns, for each query, the indices of its k nearest
points, nearest first, with distance ties going to the lowest index: the
first k columns of a stable argsort of the distance row.  All distances,
RBF potentials included, come from ``distance_blocks`` in blocks of query
rows, so memory stays near one block whatever the number of queries.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist

from .errors import ParameterError

# Entries per block of pairwise distances: 1 MiB of float64, small enough to
# stay in cache.  A block holds at least one query row, so peak memory is
# about max(_BLOCK, n) * 8 bytes.
_BLOCK = 1 << 17

# Up to this many columns a stable argsort of the whole row is cheaper than
# more than one round of argmin (measured with numpy 2.4 on x86-64); beyond
# it the sort costs grow much faster than the rounds.
_SORT_COLUMNS = 40

# Beyond this many neighbours a full sort is used whatever the row length.
_MAX_ROUNDS = 16


def check_finite(*arrays) -> None:
    """Raise ParameterError if any coordinate is NaN or infinite."""
    for values in arrays:
        if not np.isfinite(values).all():
            raise ParameterError("coordinates must be finite (no NaN or infinity)")


def distance_blocks(queries, points, metric="euclidean", **metric_kw):
    """Yield ``(start, cdist(queries[start:start + rows], points, metric, **metric_kw))``
    for blocks of about ``_BLOCK`` entries, each overwriting the last in one
    buffer that stays in cache.  Raises ParameterError for NaN or infinite
    coordinates.
    """
    check_finite(queries, points)
    rows = max(1, _BLOCK // max(1, len(points)))
    buffer = np.empty((min(rows, len(queries)), len(points)))
    for start in range(0, len(queries), rows):
        block = queries[start : start + rows]
        yield start, cdist(block, points, metric, out=buffer[: len(block)], **metric_kw)


def nearest_neighbors(queries, points, k, *, self_offset=None, metric="euclidean", **metric_kw):
    """Indices into ``points`` of the ``k`` nearest points to each query.

    Row i equals ``np.argsort(d, axis=1, kind="stable")[i, :k]`` for the
    distance matrix ``d = cdist(queries, points, metric, **metric_kw)``:
    nearest first, ties to the lowest index.  With ``self_offset`` set, query
    i is point ``self_offset + i`` and is never its own neighbour.  Asking for
    more neighbours than there are candidates returns every candidate.

    Raises ParameterError for NaN or infinite coordinates, whose order an
    argmin and a sort disagree on.  Finite coordinates whose distances
    overflow to infinity keep the argsort order.
    """
    queries = np.asarray(queries, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    n_points = len(points)
    candidates = n_points
    if self_offset is not None:
        if not 0 <= self_offset <= n_points - len(queries):
            raise ParameterError("queries must be a contiguous run of the points")
        candidates -= 1
    k = max(0, min(k, candidates))
    if k == 0:
        return np.empty((len(queries), 0), dtype=np.intp)
    out = np.empty((len(queries), k), dtype=np.intp)
    for start, dist in distance_blocks(queries, points, metric, **metric_kw):
        own = None if self_offset is None else self_offset + start
        rows = slice(start, start + len(dist))
        out[rows] = _nearest_block(dist, k, own)
    return out


def _nearest_block(dist, k, own):
    """:func:`nearest_neighbors` for one block; query i is point ``own + i``."""
    if k == 1 or (dist.shape[1] > _SORT_COLUMNS and k <= _MAX_ROUNDS):
        picked = _argmin_rounds(dist, k, own)
        if picked is not None:
            return picked
    return _stable_first(dist, k, own)


def _mask_own(dist, own, value):
    """Set entry (i, own + i) of every row i of ``dist`` to ``value``."""
    if own is not None:
        dist.reshape(-1)[own :: dist.shape[1] + 1] = value


def _argmin_rounds(dist, k, own):
    """Rows x k picks by rounds of argmin, masking each with infinity; overwrites ``dist``.

    Returns None, with the masks undone, when some row has fewer than k
    finite distances: the masks may then have tied with distances that
    overflowed to infinity.
    """
    _mask_own(dist, own, np.inf)
    cells = dist.reshape(-1)
    row_starts = np.arange(0, dist.size, dist.shape[1])
    picked = np.empty((k, len(dist)), dtype=np.intp)
    picked_dist = np.empty((k, len(dist)))
    for r in range(k):
        picked[r] = dist.argmin(axis=1)
        flat = row_starts + picked[r]
        picked_dist[r] = cells[flat]
        cells[flat] = np.inf
    if np.isfinite(picked_dist[-1]).all():
        return picked.T
    # A column picked twice was recorded masked the second time; the first wins.
    for r in reversed(range(k)):
        cells[row_starts + picked[r]] = picked_dist[r]
    return None


def _stable_first(dist, k, own):
    """First k columns of a stable argsort; overwrites ``dist``."""
    _mask_own(dist, own, np.nan)  # NaN sorts after every distance, inf included
    return np.argsort(dist, axis=1, kind="stable")[:, :k]
