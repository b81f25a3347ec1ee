"""Group-by aggregation inside windows, running on compressed codes.

Group keys only need *equality* of codes (bijective encodings), so
grouping never decodes whole columns: keys are factorized batch-wide once
into a dense group id, the window id leads it, and every aggregate is one
bincount or segment reduction over all windows of the batch.  Key values
are decoded only for the few distinct groups that reach the output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..errors import PlanningError
from ..stats import factorize, factorize_rows
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
    #: indices into the batch: the group's first row in its window, used
    #: to decode key (and other projected) columns for output.
    representatives: np.ndarray
    #: group sizes within the window
    counts: np.ndarray
    #: per-aggregate arrays aligned with the rows
    aggregates: List[np.ndarray]


def combine_keys(key_columns: Sequence[ExecColumn]) -> np.ndarray:
    """Factorize key columns batch-wide into dense, lexicographic group ids."""
    if not key_columns:
        raise PlanningError("group-by needs at least one key column")
    for col in key_columns:
        if not col.supports_equality:
            raise PlanningError(
                f"group-by key {col.name!r} needs equality-capable codes"
            )
    return factorize_rows([col.codes for col in key_columns])[0]


def window_group_aggregate(
    combined_keys: np.ndarray,
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
    sizes = ends - starts
    chunk = (np.cumsum(sizes) - sizes) // CHUNK_PAIRS
    cuts = [0, *(np.flatnonzero(chunk[1:] != chunk[:-1]) + 1).tolist(), starts.size]
    groups = int(combined_keys.max()) + 1 if combined_keys.size else 1
    parts = []
    for a, b in zip(cuts, cuts[1:]):
        # windows a..b-1 as (window, row) pairs, grouped by (window, key)
        rows = expand_ranges(starts[a:b], sizes[a:b])
        pair_window = np.repeat(np.arange(b - a, dtype=np.int64), sizes[a:b])
        slots, slot = factorize(pair_window * groups + combined_keys[rows])
        counts = np.bincount(slot, minlength=slots.size).astype(np.int64)
        # pairs run window by window in row order: a slot's first pair is
        # the group's first row in its window
        first = np.full(slots.size, rows.size, dtype=np.int64)
        np.minimum.at(first, slot, np.arange(rows.size, dtype=np.int64))
        parts.append(
            [slots // groups + a, rows[first], counts]
            + [
                _grouped_aggregate(col, func, rows, slot, counts)
                for col, func in zip(agg_columns, agg_funcs)
            ]
        )
    merged = [np.concatenate(arrays) for arrays in zip(*parts)]
    return GroupedWindowResult(merged[0], merged[1], merged[2], merged[3:])


def _grouped_aggregate(
    column: Optional[ExecColumn],
    func: str,
    rows: np.ndarray,
    slot: np.ndarray,
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
        code_sums = np.bincount(
            slot, weights=codes.astype(np.float64), minlength=counts.size
        )
        # bincount works in float64; exact for |sum| < 2^53, which the
        # fixed-point domains guarantee in practice.
        sums = scale * code_sums + offset * counts
        if func == "sum":
            return np.rint(sums).astype(np.int64)
        return sums / np.maximum(counts, 1)
    if not column.supports_order:
        raise PlanningError(
            f"max/min on group-by column {column.name!r} requires ordered codes"
        )
    fill = np.iinfo(np.int64).min if func == "max" else np.iinfo(np.int64).max
    extreme = np.full(counts.size, fill, dtype=np.int64)
    if func == "max":
        np.maximum.at(extreme, slot, codes)
    else:
        np.minimum.at(extreme, slot, codes)
    return column.decode(extreme)  # lint: force-decode (one value per group)
