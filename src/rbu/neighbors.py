"""Blocked pairwise distances and the nearest-neighbour search built on them.

``nearest_neighbors`` returns, for each query, the indices of its k nearest
points, nearest first, with distance ties going to the lowest index: the
first k columns of a stable argsort of the distance row.  All distances,
RBF potentials included, come from ``for_each_block`` in blocks of query
rows, so memory stays near one block whatever the number of queries.  The
blocks of one call are shared by one thread per CPU.
"""

from __future__ import annotations

import os
from threading import Lock, Thread

import numpy as np
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


def check_finite(*arrays) -> None:
    """Raise ParameterError if any coordinate is NaN or infinite."""
    for values in arrays:
        if not np.isfinite(values).all():
            raise ParameterError("coordinates must be finite (no NaN or infinity)")


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
    threads = 1 if len(queries) <= rows or _single_thread else _cpu_count()
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

    def body(start, dist):
        own = None if self_offset is None else self_offset + start
        out[start : start + len(dist)] = _nearest_block(dist, k, own)

    for_each_block(queries, points, body, metric, **metric_kw)
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
