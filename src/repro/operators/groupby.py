"""Group-by aggregation inside windows, running on compressed codes.

Group keys only need *equality* of codes (bijective encodings), so key
tuples are numbered batch-wide once, code offsets in mixed radix, and the
window id leads: slot = window * groups + group.  A dense slot span is
aggregated whole (one bincount or ufunc.at per aggregate, all windows at
once) and its present slots kept once; a wide one is factorized.  Tiling
windows take one pass over a row slice; overlapping ones a run of windows
at a time.  Sums accumulate codes into int64, exact below 2^63.

Each result row carries its group's number, not a row of the batch: key
outputs are read back from the numbering (:meth:`RowNumbering.column_codes`,
one code tuple per group), so only one value per group decodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from ..errors import PlanningError
from ..stats import DENSE_SPAN_FACTOR, RowNumbering, factorize, number_rows
from ..stream.window import expand_ranges
from .aggregation import AGG_FUNCS
from .base import ExecColumn

#: (window, row) pairs one pass expands at most: overlapping windows
#: repeat rows, so a batch is aggregated a run of windows at a time (a
#: window that starts inside a chunk finishes in it)
CHUNK_PAIRS = 1 << 18


@dataclass
class GroupedWindowResult:
    """Aggregates of all windows, one row per (window, group).

    Rows run window by window, groups in key order within a window.
    """

    #: window index of each row
    window_ids: np.ndarray
    #: group number of each row: its key tuple's id in the batch numbering
    groups: np.ndarray
    #: group sizes within the window
    counts: np.ndarray
    #: per-aggregate arrays aligned with the rows
    aggregates: List[np.ndarray]


def combine_keys(key_columns: Sequence[ExecColumn]) -> RowNumbering:
    """Number the key tuples batch-wide: dense, lexicographic group ids
    (array-like as the per-row ids) that read back to one code tuple each."""
    if not key_columns:
        raise PlanningError("group-by needs at least one key column")
    for col in key_columns:
        if not col.supports_equality:
            raise PlanningError(
                f"group-by key {col.name!r} needs equality-capable codes"
            )
    return number_rows([col.codes for col in key_columns])


def window_group_aggregate(
    combined_keys: Union[RowNumbering, np.ndarray],
    agg_columns: Sequence[Optional[ExecColumn]],
    agg_funcs: Sequence[str],
    starts: np.ndarray,
    ends: np.ndarray,
) -> GroupedWindowResult:
    """Aggregate every window ``[starts[w], ends[w])`` by group.

    ``combined_keys`` are dense group ids (:func:`combine_keys`).
    ``agg_columns[i]`` may be None for ``count``.  sum/avg columns must be
    affine, max/min columns order-preserving (enforced like in
    :func:`~repro.operators.aggregation.window_aggregate`).
    """
    for func in agg_funcs:
        if func not in AGG_FUNCS:
            raise PlanningError(f"unknown aggregate {func!r}")
    ids = np.asarray(combined_keys)
    groups = int(ids.max()) + 1 if ids.size else 1
    sizes = ends - starts
    if starts.size and (starts[1:] == ends[:-1]).all():
        rows = slice(int(starts[0]), int(ends[-1]))
        return _aggregate(ids, groups, rows, sizes, 0, agg_columns, agg_funcs)
    chunk = (np.cumsum(sizes) - sizes) // CHUNK_PAIRS
    cuts = [0, *(np.flatnonzero(chunk[1:] != chunk[:-1]) + 1).tolist(), starts.size]
    parts = [
        _aggregate(
            ids,
            groups,
            expand_ranges(starts[a:b], sizes[a:b]),
            sizes[a:b],
            a,
            agg_columns,
            agg_funcs,
        )
        for a, b in zip(cuts, cuts[1:])
    ]
    if len(parts) == 1:
        return parts[0]
    return GroupedWindowResult(
        np.concatenate([p.window_ids for p in parts]),
        np.concatenate([p.groups for p in parts]),
        np.concatenate([p.counts for p in parts]),
        [np.concatenate(arrays) for arrays in zip(*(p.aggregates for p in parts))],
    )


def _aggregate(
    ids: np.ndarray,
    groups: int,
    rows: Union[slice, np.ndarray],
    sizes: np.ndarray,
    first_window: int,
    agg_columns: Sequence[Optional[ExecColumn]],
    agg_funcs: Sequence[str],
) -> GroupedWindowResult:
    """Windows ``first_window + [0, sizes.size)`` over their (window, row)
    pairs, ``rows`` the pairs' rows in window order."""
    slot = np.repeat(np.arange(sizes.size, dtype=np.int64) * groups, sizes)
    slot += ids[rows]
    span, numbered = sizes.size * groups, None
    if span >= DENSE_SPAN_FACTOR * slot.size:
        numbered, slot = factorize(slot)
        span = numbered.size
    counts = np.bincount(slot, minlength=span)
    # nonzero over a bool mask is several times faster than over int64
    present = np.flatnonzero(counts != 0)
    slots = present if numbered is None else numbered
    counts = counts[present].astype(np.int64, copy=False)
    window_ids, group_ids = np.divmod(slots, groups)
    if first_window:
        window_ids += first_window
    return GroupedWindowResult(
        window_ids,
        group_ids,
        counts,
        [
            _grouped_aggregate(col, func, rows, slot, span, present, counts)
            for col, func in zip(agg_columns, agg_funcs)
        ],
    )


def _grouped_aggregate(
    column: Optional[ExecColumn],
    func: str,
    rows: Union[slice, np.ndarray],
    slot: np.ndarray,
    span: int,
    present: np.ndarray,
    counts: np.ndarray,
) -> np.ndarray:
    if func == "count":
        return counts
    if column is None:
        raise PlanningError(f"aggregate {func!r} needs a column")
    codes = column.codes[rows]
    if func in ("sum", "avg"):
        affine = column.affine
        if affine is None:
            raise PlanningError(
                f"sum/avg on group-by column {column.name!r} requires affine codes"
            )
        scale, offset = affine
        code_sums = np.zeros(span, dtype=np.int64)
        np.add.at(code_sums, slot, codes)
        sums = code_sums[present]
        if scale != 1:
            sums *= scale
        if offset:
            sums += offset * counts
        if func == "sum":
            return sums
        return sums / np.maximum(counts, 1)
    if not column.supports_order:
        raise PlanningError(
            f"max/min on group-by column {column.name!r} requires ordered codes"
        )
    fill = np.iinfo(np.int64).min if func == "max" else np.iinfo(np.int64).max
    extreme = np.full(span, fill, dtype=np.int64)
    if func == "max":
        np.maximum.at(extreme, slot, codes)
    else:
        np.minimum.at(extreme, slot, codes)
    return column.decode(extreme[present])  # lint: force-decode (one value per group)
