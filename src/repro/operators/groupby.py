"""Group-by aggregation inside windows, running on compressed codes.

Group keys only need *equality* of codes (bijective encodings), so keys
are numbered batch-wide once, code offsets in mixed radix, and the window
id leads: slot = window * groups + group.  A dense slot span is aggregated
whole (one bincount or ufunc.at per aggregate, all windows at once) and its
present slots kept once; a wide one is factorized.  Only output keys decode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from ..errors import PlanningError
from ..stats import DENSE_SPAN_FACTOR, factorize, factorize_rows
from ..stream.window import expand_ranges
from .aggregation import AGG_FUNCS
from .base import ExecColumn, first_rows

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
        # windows a..b-1 as (window, row) pairs: a row slice if they tile it
        if b > a and (starts[a + 1 : b] == ends[a : b - 1]).all():
            rows: Union[slice, np.ndarray] = slice(starts[a], ends[b - 1])
        else:
            rows = expand_ranges(starts[a:b], sizes[a:b])
        pair_window = np.arange(b - a, dtype=np.int64) * groups
        slot = np.repeat(pair_window, sizes[a:b]) + combined_keys[rows]
        span, numbered = (b - a) * groups, None
        if span >= DENSE_SPAN_FACTOR * slot.size:
            numbered, slot = factorize(slot)
            span = numbered.size
        counts = np.bincount(slot, minlength=span)
        # nonzero over a bool mask is several times faster than over int64
        present = np.flatnonzero(counts != 0)
        slots = present if numbered is None else numbered
        counts = counts[present].astype(np.int64)
        # pairs run window by window in row order: a slot's first pair is
        # the group's first row in its window
        first = first_rows(slot, span)[present]
        first = first + rows.start if isinstance(rows, slice) else rows[first]
        parts.append(
            [slots // groups + a, first, counts]
            + [
                _grouped_aggregate(col, func, rows, slot, span, present, counts)
                for col, func in zip(agg_columns, agg_funcs)
            ]
        )
    merged = [np.concatenate(arrays) for arrays in zip(*parts)]
    return GroupedWindowResult(merged[0], merged[1], merged[2], merged[3:])


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
        code_sums = np.bincount(slot, codes.astype(np.float64), span)[present]
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
    extreme = np.full(span, fill, dtype=np.int64)
    if func == "max":
        np.maximum.at(extreme, slot, codes)
    else:
        np.minimum.at(extreme, slot, codes)
    return column.decode(extreme[present])  # lint: force-decode (one value per group)
