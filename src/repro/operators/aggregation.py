"""Windowed aggregation kernels: avg/sum/count/max/min over sliding windows.

Kernels run on *codes*.  For affine codecs the correction
``value = scale * code + offset`` is applied once per window, so e.g.
``avg(value)`` over a Base-Delta column touches only the narrow delta
payload — this is the direct-processing speedup of Sec. IV-B.  min/max run
on order-preserving codes and decode one result per window.

Windows arrive as two int64 arrays, window w spanning
``[starts[w], ends[w])``.  Disjoint windows (tumbling, sampling, ragged
time windows) are one segment reduction (``reduceat``) for sums and
extrema alike; overlapping windows use prefix sums for sums and block
prefix/suffix scans for extrema, O(n) for any number of windows.

Run-structured columns (RLE served without expansion) aggregate at run
granularity: prefix sums weighted by run lengths answer sum/avg, and
max/min reduce over the runs a window overlaps — correct even for
partially covered runs because a run's value is constant.
"""

from __future__ import annotations

import numpy as np

from ..errors import PlanningError
from .base import ExecColumn

AGG_FUNCS = ("avg", "sum", "count", "max", "min")


def sliding_code_sums(
    codes: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """Sum of codes per window: one segment reduction when the windows are
    pairwise disjoint (empty ones sum to 0), else a differenced prefix sum.
    int64 addition wraps the same way on both paths."""
    codes = np.asarray(codes, dtype=np.int64)
    if (starts[1:] >= ends[:-1]).all():
        nonempty = ends > starts
        sums = np.zeros(starts.size, dtype=np.int64)
        sums[nonempty] = _segment_reduce(
            np.add, codes, starts[nonempty], ends[nonempty]
        )
        return sums
    prefix = np.zeros(codes.size + 1, dtype=np.int64)
    np.cumsum(codes, out=prefix[1:])
    return prefix[ends] - prefix[starts]


def _run_prefix_sums(
    run_values: np.ndarray, run_lengths: np.ndarray, positions: np.ndarray
) -> np.ndarray:
    """Prefix sum of the expanded column, evaluated at ``positions``.

    ``P(x) = sum(values[:x])`` computed from runs alone: the weighted
    prefix over whole runs plus a partial term for the run containing x.
    """
    ends = np.cumsum(run_lengths)
    starts = ends - run_lengths
    weighted = np.zeros(run_values.size + 1, dtype=np.int64)
    np.cumsum(run_values * run_lengths, out=weighted[1:])
    r = np.searchsorted(ends, positions, side="right")
    r = np.minimum(r, run_values.size - 1)
    return weighted[r] + (positions - starts[r]) * run_values[r]


def sliding_extreme(
    codes: np.ndarray, starts: np.ndarray, ends: np.ndarray, *, take_max: bool
) -> np.ndarray:
    """Max (or min) of codes per window.

    Overlapping count windows (one size, a constant stride below it) use
    block prefix/suffix scans, O(n) where a reduction per window would be
    O(n·size).  Every other layout — tumbling, sampling, ragged time
    windows — is one ``reduceat`` (:func:`_segment_reduce`), O(n)
    whenever the windows do not overlap.
    """
    if (ends <= starts).any():
        raise PlanningError("sliding_extreme requires non-empty windows")
    if starts.size > 1:
        size, stride = int(ends[0] - starts[0]), int(starts[1] - starts[0])
        if (
            stride < size
            and (ends - starts == size).all()
            and (np.diff(starts) == stride).all()
        ):
            return _block_extreme(codes, starts, size, take_max=take_max)
    return _segment_reduce(np.maximum if take_max else np.minimum, codes, starts, ends)


def _segment_reduce(
    op: np.ufunc, codes: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """``op`` over each non-empty window of arbitrary extents: one ``reduceat``.

    Tiling windows (each starting where the last ended) reduce one slice
    at their starts.  Otherwise (start, end) boundaries interleave: the
    even segments are the windows, the odd segments (between windows,
    possibly empty or reversed) are computed but discarded, and a
    one-element sentinel keeps ``end == codes.size`` a valid index.
    """
    if starts.size == 0:
        return np.zeros(0, dtype=np.int64)
    if (starts[1:] == ends[:-1]).all():
        lo = int(starts[0])
        return op.reduceat(codes[lo : int(ends[-1])], starts - lo)
    idx = np.empty(2 * starts.size, dtype=np.int64)
    idx[0::2] = starts
    idx[1::2] = ends
    padded = np.concatenate([codes, codes[-1:]])
    return op.reduceat(padded, idx)[0::2]


def _block_extreme(
    codes: np.ndarray, starts: np.ndarray, size: int, *, take_max: bool
) -> np.ndarray:
    """Sliding extrema for overlapping equal-size windows, O(n) vectorized.

    Split the span into blocks of the window size; every window straddles
    at most two adjacent blocks, so its extreme is
    ``op(suffix_scan[start], prefix_scan[start + size - 1])``.
    """
    lo = int(starts[0])
    hi = int(starts[-1]) + size
    span = codes[lo:hi]
    op = np.maximum if take_max else np.minimum
    identity = np.iinfo(np.int64).min if take_max else np.iinfo(np.int64).max
    nblocks = -(-span.size // size)
    padded = np.full(nblocks * size, identity, dtype=np.int64)
    padded[: span.size] = span
    blocks = padded.reshape(nblocks, size)
    pre = op.accumulate(blocks, axis=1).reshape(-1)
    suf = op.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].reshape(-1)
    a = (starts - lo).astype(np.int64)
    return op(suf[a], pre[a + size - 1])


def window_aggregate(
    column: ExecColumn, starts: np.ndarray, ends: np.ndarray, func: str
) -> np.ndarray:
    """Aggregate one column over each window; returns per-window results.

    Window w spans rows ``[starts[w], ends[w])`` (int64 arrays).
    ``sum``/``avg`` require an affine column (the server decodes
    non-affine codecs before calling); ``max``/``min`` require order;
    ``count`` needs nothing.  Results are in the *stored* integer domain
    (fixed-point for float fields): ``sum``/``max``/``min``/``count`` are
    int64, ``avg`` is float64.
    """
    if func not in AGG_FUNCS:
        raise PlanningError(f"unknown aggregate {func!r}")
    counts = ends - starts
    if func == "count":
        return counts
    runs = column.pending_runs
    if func in ("sum", "avg"):
        affine = column.affine
        if affine is None:
            raise PlanningError(
                f"sum/avg on column {column.name!r} requires affine codes; "
                "the server should have decoded it"
            )
        scale, offset = affine
        if runs is not None:
            code_sums = _run_prefix_sums(*runs, ends) - _run_prefix_sums(*runs, starts)
        else:
            code_sums = sliding_code_sums(column.codes, starts, ends)
        sums = scale * code_sums + offset * counts
        if func == "sum":
            return sums
        return sums / np.maximum(counts, 1)
    # max / min on order-preserving codes, decode one result per window
    if not column.supports_order:
        raise PlanningError(
            f"max/min on column {column.name!r} requires order-preserving "
            "codes; the server should have decoded it"
        )
    if runs is not None:
        if (ends <= starts).any():
            raise PlanningError("sliding_extreme requires non-empty windows")
        # A window's extreme is the extreme of the runs it overlaps — the
        # run value is constant, so partial coverage does not matter.
        run_values, run_lengths = runs
        run_ends = np.cumsum(run_lengths)
        first = np.searchsorted(run_ends, starts, side="right")
        last = np.searchsorted(run_ends, ends - 1, side="right")
        op = np.maximum if func == "max" else np.minimum
        extreme_codes = _segment_reduce(op, run_values, first, last + 1)
        # lint: force-decode (one extreme per window, never the column)
        return column.decode(extreme_codes)
    extreme_codes = sliding_extreme(
        column.codes, starts, ends, take_max=(func == "max")
    )
    return column.decode(extreme_codes)  # lint: force-decode (one per window)
