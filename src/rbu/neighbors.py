"""Blocked pairwise distances and the nearest-neighbour search built on them.

``nearest_neighbors`` returns, for each query, the indices of its k nearest
points, nearest first, with distance ties going to the lowest index: the
first k columns of a stable argsort of the distance row.  Whole distance
rows, RBF potentials included, come from ``for_each_block`` in blocks of
query rows, so memory stays near one block whatever the number of queries.
The blocks of one call are shared by one thread per CPU.  Large Euclidean
searches in few dimensions first ask a k-d tree for a few candidates per
query and compute whole rows only for the queries it cannot settle.
"""

from __future__ import annotations

import numbers
import os
from threading import Lock, Thread

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .errors import ParameterError

# Entries per block of pairwise distances: 1 MiB of float64, small enough to
# stay in cache.  A block holds at least one query row, so peak memory is
# about max(_BLOCK, n) * 8 bytes, times threads / _MAX_SPLIT beyond
# _MAX_SPLIT threads.
_BLOCK = 1 << 17

# Threads split the _BLOCK budget in at most this many parts.  Each block
# pays a cdist call and its body's numpy calls on the GIL: serially at
# n=8000 in 8-D, quarter blocks cost 4-10% more than whole ones and
# one-row blocks 27-44% more (numpy 2.4, x86-64).
_MAX_SPLIT = 4

# True in a sweep's pool workers (see ``single_thread_blocks``), so that N
# worker processes never start N x CPUs threads.
_single_thread = False

# Up to this many columns a stable argsort of the whole row is cheaper than
# more than one round of argmin (measured with numpy 2.4 on x86-64); beyond
# it the sort costs grow much faster than the rounds.
_SORT_COLUMNS = 40

# Beyond this many neighbours a full sort is used whatever the row length.
_MAX_ROUNDS = 16

# The k-d tree search (:func:`_tree_search`) runs for Euclidean queries of at
# most _MAX_ROUNDS neighbours in 1 to _TREE_DIMENSIONS dimensions, among at
# least _TREE_POINTS points, with at least _TREE_PAIRS query x point pairs.
# Milliseconds per call, tree / blocked search, for every point of a set of
# Gaussian points queried for its nearest other point (k = 1, self_offset 0;
# timeit, best of 5; scipy 1.17, numpy 2.4, 2 CPUs of an x86-64 host):
#
#   points        m = 2      m = 4      m = 6      m = 8      m = 10     m = 12
#   1,000        1.8/2.9    2.6/3.0    6.0/4.0    8.2/4.0   10.3/4.6   10.2/5.8
#   1,500        2.4/4.2    3.0/5.4    7.2/5.9   13.4/8.3   19.0/8.9   18.1/10.6
#   2,000        2.2/7.0    4.1/7.4   10.6/12.2  15.1/12.2  19.8/13.6  27.1/18.8
#   4,000        4.3/30     10.5/29    18.0/42    33/50      66/59     107/67
#   6,400        7.5/67     14.6/122   38/100     85/140    196/169    243/186
#
# At 3,000 points, m = 7: 24.5/28.5; m = 8: 35.1/35.5.  The number of
# neighbours matters little: 4,000 points, m = 6, k = 16: 45/78.  Queries and
# points of other counts (m = 6 unless noted; the rule takes the tree where
# marked *): 84,000 x 100: 101/35; 8,400 x 1,000: 26/24; 4,200 x 2,000: 22/29*
# (m = 8: 33/31*); 1,000 x 8,400, m = 7: 20/34*; 400 x 21,000: 16/27*;
# 100 x 84,000: 48/35*, nearly all of it building the tree.
_TREE_PAIRS = 1 << 23
_TREE_POINTS = 2000
_TREE_DIMENSIONS = 8

# A tree search settles a query when the tree's distance to its last candidate
# exceeds the k-th neighbour's distance by this relative margin, which is far
# above the relative rounding error of the tree's distances...
_TREE_MARGIN = 1e-9
# ... and lies above this floor, whose square is far above the smallest normal
# float, so that the error stays relative however small the differences are.
_TREE_FLOOR = 1e-100


def check_finite(*arrays) -> None:
    """Raise ParameterError if any coordinate is NaN or infinite."""
    for values in arrays:
        if not np.isfinite(values).all():
            raise ParameterError("coordinates must be finite (no NaN or infinity)")


def integer_k(k) -> int:
    """A neighbour count ``k`` as an int; an integral float passes, a bool
    or any other value raises ParameterError."""
    if isinstance(k, bool) or not isinstance(k, numbers.Real) or not float(k).is_integer():
        raise ParameterError(f"k must be an integer, got {k!r}")
    return int(k)


def single_thread_blocks() -> None:
    """Run every later ``for_each_block`` call on the calling thread alone;
    a process pool's initializer."""
    global _single_thread
    _single_thread = True


def _cpu_count() -> int:
    """CPUs this process may run on (``taskset`` narrows them)."""
    return len(os.sched_getaffinity(0))


def for_each_block(queries, points, body, metric="euclidean", **metric_kw) -> None:
    """Call ``body(start, cdist(queries[start:start + rows], points, metric, **metric_kw))``
    for blocks of query rows that tile ``queries``.

    A call that fits one block of about ``_BLOCK`` entries runs on the
    calling thread.  Otherwise one thread per CPU, the caller's included,
    takes blocks of ``1 / threads`` of that size (never less than
    ``1 / _MAX_SPLIT``) until none is left, so ``body`` must write only the
    rows of its own block and set any ``np.errstate`` itself.  Each thread
    overwrites its blocks in one buffer.  Every thread has finished when the
    call returns; the first exception raised in any of them is raised again
    here.  Raises ParameterError for NaN or infinite coordinates.
    """
    check_finite(queries, points)
    rows = max(1, _BLOCK // max(1, len(points)))
    if 0 < len(queries) <= rows:
        body(0, cdist(queries, points, metric, **metric_kw))
        return
    threads = 1 if _single_thread else _cpu_count()
    rows = max(1, rows // min(threads, _MAX_SPLIT))
    starts = iter(range(0, len(queries), rows))
    lock = Lock()
    errors = []

    def work():
        buffer = np.empty((min(rows, len(queries)), len(points)))
        try:
            while not errors:
                with lock:
                    start = next(starts, None)
                if start is None:
                    return
                block = queries[start : start + rows]
                body(start, cdist(block, points, metric, out=buffer[: len(block)], **metric_kw))
        except BaseException as error:  # raised again by the caller
            errors.append(error)

    blocks = -(-len(queries) // rows)
    workers = [Thread(target=work) for _ in range(min(threads, blocks) - 1)]
    for worker in workers:
        worker.start()
    work()
    for worker in workers:
        worker.join()
    if errors:
        raise errors[0]


def nearest_neighbors(queries, points, k, *, self_offset=None, metric="euclidean", **metric_kw):
    """Indices into ``points`` of the ``k`` nearest points to each query.

    Row i equals ``np.argsort(d, axis=1, kind="stable")[i, :k]`` for the
    distance matrix ``d = cdist(queries, points, metric, **metric_kw)``:
    nearest first, ties to the lowest index.  With ``self_offset`` set, each
    query is one of the points and is never its own neighbour: query i is
    point ``self_offset + i`` for an integer, or point ``self_offset[i]`` for
    one index per query.  Asking for more neighbours than there are
    candidates returns every candidate.

    Raises ParameterError for NaN or infinite coordinates, whose order an
    argmin and a sort disagree on.  Finite coordinates whose distances
    overflow to infinity keep the argsort order.  Large Euclidean searches
    in few dimensions (see ``_TREE_PAIRS``) go through :func:`_tree_search`
    first, with the same result.
    """
    queries = np.asarray(queries, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    n_points = len(points)
    candidates = n_points
    if self_offset is not None:
        self_offset = _own_rows(self_offset, len(queries), n_points)
        candidates -= 1
    k = max(0, min(k, candidates))
    if k == 0:
        return np.empty((len(queries), 0), dtype=np.intp)
    if not _tree_pays(queries, points, k, metric, metric_kw):
        return _blocked_search(queries, points, k, self_offset, metric, metric_kw)
    check_finite(queries, points)
    out, rows = _tree_search(queries, points, k, self_offset)
    if len(rows):
        if self_offset is not None:
            self_offset = _own_array(self_offset, len(queries))[rows]
        out[rows] = _blocked_search(queries[rows], points, k, self_offset, metric, metric_kw)
    return out


def _blocked_search(queries, points, k, self_offset, metric, metric_kw):
    """:func:`nearest_neighbors` from every query's whole distance row,
    computed by :func:`for_each_block`; ``1 <= k <= candidates``."""
    out = np.empty((len(queries), k), dtype=np.intp)

    def body(start, dist):
        out[start : start + len(dist)] = _nearest_block(dist, k, self_offset, start)

    for_each_block(queries, points, body, metric, **metric_kw)
    return out


def _tree_pays(queries, points, k, metric, metric_kw):
    """Whether :func:`_tree_search` is used: Euclidean distances, few
    neighbours, few dimensions, many points and many query x point pairs."""
    euclidean = metric == "euclidean" and not metric_kw
    euclidean |= metric == "minkowski" and metric_kw.keys() == {"p"} and metric_kw["p"] == 2
    return (
        euclidean
        and k <= _MAX_ROUNDS
        and 1 <= queries.shape[1] <= _TREE_DIMENSIONS
        and len(points) >= _TREE_POINTS
        and len(queries) * len(points) >= _TREE_PAIRS
    )


def _tree_search(queries, points, k, self_offset):
    """:func:`nearest_neighbors` for the queries a k-d tree settles; returns
    ``(out, rows)``, where ``rows`` lists the queries left for the blocked
    search, whose rows of ``out`` are not set.

    The tree proposes each query's k + 1 nearest points, and one more when
    the query is one of the points.  Their distances are computed again as
    ``cdist`` computes them (:func:`_euclidean`) and ordered by (distance,
    index), without the query's own point (found by index, so its duplicates
    stay candidates); the first k are kept.  A query is settled when the
    tree's distance to its last candidate lies in ``(_TREE_FLOOR, inf)`` and
    exceeds the k-th distance by ``_TREE_MARGIN``: every point the tree did
    not propose is at least that far by the tree's rounding, so its exact
    distance is larger than the k-th and it neither precedes nor ties with
    the picks.  Ties at the boundary, many duplicates, overflowing or tiny
    distances leave a query unsettled.
    """
    n_queries, n_points = len(queries), len(points)
    count = min(k + 1 + (self_offset is not None), n_points)
    tree = cKDTree(points)
    tree_dist, found = tree.query(queries, count, workers=1 if _single_thread else _cpu_count())
    tree_dist, found = tree_dist.reshape(n_queries, count), found.reshape(n_queries, count)
    # Where fewer points than asked lie a finite tree distance away, the tree
    # pads with index n_points at distance inf, and the query stays unsettled.
    dist = _euclidean(queries, points, np.minimum(found, n_points - 1))
    if self_offset is not None:
        dist[found == _own_array(self_offset, n_queries)[:, None]] = np.nan  # sorts last
    order = np.lexsort((found, dist), axis=1)[:, :k]
    kth = np.take_along_axis(dist, order[:, -1:], axis=1)[:, 0]
    last = tree_dist[:, -1]
    with np.errstate(over="ignore"):
        settled = (last > kth * (1 + _TREE_MARGIN)) & (last > _TREE_FLOOR) & (last < np.inf)
    return np.take_along_axis(found, order, axis=1), np.flatnonzero(~settled)


def _euclidean(queries, points, found):
    """``cdist(queries, points)`` at columns ``found`` of each row, bit for
    bit: squared differences summed in coordinate order, then the root."""
    squares = np.zeros(found.shape)
    with np.errstate(over="ignore"):
        for j in range(queries.shape[1]):
            diff = queries[:, j, None] - points[:, j][found]
            squares += diff * diff
    return np.sqrt(squares)


def _own_array(self_offset, n_queries):
    """Each query's own point index, for ``self_offset`` as checked by :func:`_own_rows`."""
    if isinstance(self_offset, np.ndarray):
        return self_offset
    return self_offset + np.arange(n_queries)


def _own_rows(self_offset, n_queries, n_points):
    """``self_offset`` checked: an int, or an intp array of one point per query."""
    if isinstance(self_offset, (int, np.integer)):
        if not 0 <= self_offset <= n_points - n_queries:
            raise ParameterError("queries must be a contiguous run of the points")
        return self_offset
    own = np.asarray(self_offset)
    if (
        own.shape != (n_queries,)
        or own.dtype.kind not in "iu"
        or not ((own >= 0) & (own < n_points)).all()
    ):
        raise ParameterError("self_offset must be an int or one point index per query")
    return own.astype(np.intp, copy=False)


def _nearest_block(dist, k, self_offset, start):
    """:func:`nearest_neighbors` for the block of queries from ``start``;
    ``self_offset`` as checked by :func:`_own_rows`, or None."""
    if k == 1 or (dist.shape[1] > _SORT_COLUMNS and k <= _MAX_ROUNDS):
        picked = _argmin_rounds(dist, k, self_offset, start)
        if picked is not None:
            return picked
    return _stable_first(dist, k, self_offset, start)


def _mask_own(dist, self_offset, start, value):
    """Set each query's own column in the block ``dist`` of queries from
    ``start`` to ``value``: column ``self_offset + start + i`` of row i for an
    int, ``self_offset[start + i]`` for an array; nothing for None."""
    if isinstance(self_offset, np.ndarray):
        dist[np.arange(len(dist)), self_offset[start : start + len(dist)]] = value
    elif self_offset is not None:
        dist.reshape(-1)[self_offset + start :: dist.shape[1] + 1] = value


def _argmin_rounds(dist, k, self_offset, start):
    """Rows x k picks by rounds of argmin, masking each with infinity; overwrites ``dist``.

    Returns None, with the masks undone, when some row has fewer than k
    finite distances: the masks may then have tied with distances that
    overflowed to infinity.
    """
    _mask_own(dist, self_offset, start, np.inf)
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


def _stable_first(dist, k, self_offset, start):
    """First k columns of a stable argsort; overwrites ``dist``."""
    _mask_own(dist, self_offset, start, np.nan)  # NaN sorts after every distance, inf included
    return np.argsort(dist, axis=1, kind="stable")[:, :k]
