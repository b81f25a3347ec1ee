"""Distinct: duplicate elimination on compressed codes.

``select distinct`` deduplicates output rows; since every projected column
is either decoded or equality-capable, uniqueness of code tuples equals
uniqueness of value tuples, so dedup runs without decompression and only
the surviving rows are decoded.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..errors import PlanningError
from ..stats import factorize_rows
from ..stream.window import expand_ranges
from .base import ExecColumn, first_rows


def distinct_indices(columns: Sequence[ExecColumn], indices: np.ndarray) -> np.ndarray:
    """Subset of ``indices`` keeping the first row of each distinct tuple.

    ``indices`` are row positions into the batch; result preserves first
    occurrence order.
    """
    if not columns:
        raise PlanningError("distinct needs at least one column")
    for col in columns:
        if not col.supports_equality:
            raise PlanningError(
                f"distinct on {col.name!r} needs equality-capable codes"
            )
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        return indices
    ids, count = factorize_rows([col.codes[indices] for col in columns])
    keep = np.zeros(indices.size, dtype=bool)
    keep[first_rows(ids, count)] = True
    return indices[keep]


def window_distinct(
    columns: Sequence[np.ndarray], starts: np.ndarray, ends: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """(window, row) pairs: one row per distinct tuple of ``columns`` in
    each window, ordered by window, then tuple value.

    With ``ids`` the tuples' order-preserving dense ids, row i stands for
    its id in window w when it is the id's last occurrence there:
    ``starts[w] <= i < ends[w] <= next(i)``, with ``next(i)`` the id's
    next occurrence (the row count if none).  Window starts and ends are
    both non-decreasing, so the windows of one row form an interval and
    the work is proportional to the output.

    Pairwise disjoint windows (tumbling, sampling) hold each row at most
    once and need no ``next(i)``: one stable sort of the in-window rows by
    (window, id) puts each pair's rows in ascending order, and the last of
    each run is the pair's row.  Its keys take the narrowest unsigned
    type that holds them: below 2^16 ids and windows, a radix sort.
    """
    ids, count = factorize_rows(columns)
    if bool((starts[1:] >= ends[:-1]).all()):
        lengths = ends - starts
        windows = np.repeat(np.arange(starts.size, dtype=np.int64), lengths)
        rows = expand_ranges(starts, lengths)
        row_ids = ids[rows]
        key = np.min_scalar_type(max(count, starts.size))
        order = np.lexsort((row_ids.astype(key), windows.astype(key)))
        pairs = (windows * count + row_ids)[order]
        last = np.ones(pairs.size, dtype=bool)
        last[:-1] = pairs[1:] != pairs[:-1]
        order = order[last]
        return windows[order], rows[order]
    n = ids.size
    order = np.argsort(ids, kind="stable")
    following = np.full(n, n, dtype=np.int64)
    same = ids[order[1:]] == ids[order[:-1]]
    following[order[:-1][same]] = order[1:][same]
    positions = np.arange(n, dtype=np.int64)
    first = np.searchsorted(ends, positions, side="right")
    stop = np.minimum(
        np.searchsorted(starts, positions, side="right"),
        np.searchsorted(ends, following, side="right"),
    )
    counts = np.maximum(stop - first, 0)
    rows = np.repeat(positions, counts)
    windows = expand_ranges(first, counts)
    by_window = np.argsort(windows * count + ids[rows])
    return windows[by_window], rows[by_window]
