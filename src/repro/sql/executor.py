"""Plan executors: run compiled queries batch-by-batch on ExecColumns.

The server hands each executor a dict of :class:`ExecColumn` per batch —
direct (compressed codes) when the codec serves every use of the column,
decoded otherwise — and the executor produces a :class:`QueryResult`.
Batches whose windows never cross a batch boundary execute entirely on the
direct representation; cross-boundary windows fall back to the decoded
tail a :class:`BatchBuffer` carries (DESIGN.md §2, Sec. VI of the paper).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import PlanningError
from ..operators.aggregation import window_aggregate
from ..operators.base import ExecColumn, decoded_column
from ..operators.distinct import distinct_indices, window_distinct
from ..operators.groupby import combine_keys, window_group_aggregate
from ..operators.join import semi_join_latest
from ..operators.selection import compare_to_literal
from ..stream.quantize import dequantize
from ..stream.schema import KIND_FLOAT
from ..stream.window import (
    MODE_TIME,
    PartitionWindowState,
    TimeWindowScheduler,
    WindowLayout,
    WindowScheduler,
    WindowSpec,
)
from .ast import BinaryOp, ColumnRef, Expr, Literal, expr_columns
from .plan import (
    OUT_AGG,
    OUT_COLUMN,
    OUT_EXPR,
    OUT_KEY,
    OUT_LAST,
    JoinPlan,
    OutputColumn,
    PassthroughPlan,
    Plan,
    PredicateGroup,
    PredicateNode,
    WindowAggPlan,
)

#: HAVING compares converted (user-domain) result arrays to a literal
_COMPARE = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


@dataclass
class QueryResult:
    """Output rows of one batch, column-wise in user-facing values."""

    columns: Dict[str, np.ndarray] = field(default_factory=dict)
    n_rows: int = 0

    @classmethod
    def empty(cls, outputs: Sequence[OutputColumn]) -> "QueryResult":
        return cls(columns={o.name: np.zeros(0) for o in outputs}, n_rows=0)

    @classmethod
    def merge(cls, results: Sequence["QueryResult"]) -> "QueryResult":
        results = [r for r in results if r.n_rows > 0]
        if not results:
            return cls()
        names = list(results[0].columns)
        return cls(
            columns={
                name: np.concatenate([r.columns[name] for r in results])
                for name in names
            },
            n_rows=sum(r.n_rows for r in results),
        )


def _convert_output(out: OutputColumn, stored: np.ndarray) -> np.ndarray:
    """Stored fixed-point domain -> user-facing values."""
    scale = 10 ** out.src_decimals
    func = out.agg_func
    if func == "count":
        return np.asarray(stored, dtype=np.int64)
    if func == "avg":
        return np.asarray(stored, dtype=np.float64) / scale
    if out.out_field.kind == KIND_FLOAT:
        return dequantize(np.asarray(stored), out.src_decimals)
    return np.asarray(stored, dtype=np.int64)


def _window_last(
    col: ExecColumn, last_rows: np.ndarray
) -> Tuple[ExecColumn, np.ndarray]:
    """The column and codes of one row per window.  A run view reads them
    through :meth:`ExecColumn.take`, which maps rows to runs, instead of
    expanding every row, unless there are more windows than rows."""
    if col.pending_runs is not None and last_rows.size <= len(col):
        col = col.take(last_rows)
        return col, col.codes
    return col, col.codes[last_rows]


def _eval_expr(expr: Expr, values: Dict[str, np.ndarray]) -> np.ndarray:
    """Evaluate arithmetic expressions in the stored integer domain.

    Division is floor division, matching Q3's ``position / 5280``
    segmentation of integer positions.
    """
    if isinstance(expr, Literal):
        return np.int64(expr.value)
    if isinstance(expr, ColumnRef):
        return values[expr.name]
    if isinstance(expr, BinaryOp):
        left = _eval_expr(expr.left, values)
        right = _eval_expr(expr.right, values)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/":
            return np.floor_divide(left, right)
        raise PlanningError(f"unknown arithmetic operator {expr.op!r}")
    raise PlanningError(f"cannot evaluate expression {expr!s}")


def _predicate_mask(node, leaf: Callable[..., np.ndarray]) -> np.ndarray:
    """Fold an AND/OR predicate tree into a boolean mask; ``leaf``
    evaluates one WHERE or HAVING comparison."""
    if not isinstance(node, PredicateGroup):
        return leaf(node)
    masks = [_predicate_mask(child, leaf) for child in node.children]
    out = masks[0].copy()
    for m in masks[1:]:
        if node.op == "and":
            out &= m
        else:
            out |= m
    return out


def _where_mask(
    columns: Dict[str, ExecColumn], node: PredicateNode
) -> np.ndarray:
    return _predicate_mask(
        node,
        lambda pred: compare_to_literal(
            columns[pred.column], pred.op, pred.literal
        ),
    )


def _apply_where(
    columns: Dict[str, ExecColumn], predicate, n: int
) -> Tuple[Dict[str, ExecColumn], int]:
    """Filter the batch per the WHERE predicate tree (None = keep all)."""
    if predicate is None or n == 0:
        return columns, n
    if (
        isinstance(predicate, PredicateGroup)
        and predicate.op == "and"
        and predicate.ordered
    ):
        return _apply_where_cascade(columns, predicate, n)
    mask = _where_mask(columns, predicate)
    if mask.all():
        return columns, n
    idx = np.nonzero(mask)[0]
    return {name: col.take(idx) for name, col in columns.items()}, int(idx.size)


def _apply_where_cascade(
    columns: Dict[str, ExecColumn], predicate: PredicateGroup, n: int
) -> Tuple[Dict[str, ExecColumn], int]:
    """Short-circuit an optimizer-ordered AND: each conjunct filters the
    survivors of the previous one, so later (costlier) predicates touch
    fewer rows.  Semantically identical to the all-at-once mask."""
    for child in predicate.children:
        if n == 0:
            break
        mask = _where_mask(columns, child)
        if mask.all():
            continue
        idx = np.nonzero(mask)[0]
        columns = {name: col.take(idx) for name, col in columns.items()}
        n = int(idx.size)
    return columns, n


def _apply_where_fused(
    columns: Dict[str, ExecColumn],
    predicate: "PredicateNode",
    fuse: str,
    n: int,
) -> Tuple[Dict[str, ExecColumn], int]:
    """Filter at run granularity, keeping ``fuse`` run-structured.

    The optimizer only sets ``fuse_column`` when the predicate reads that
    single column, so the whole tree can be evaluated once per *run* of
    the fused column; surviving runs stay a run view (the run-aware
    aggregation path consumes them without expansion) while the other
    columns are row-filtered through the expanded mask.  Batches where
    the column arrives without a run view fall back to the row path.
    """
    if predicate is None or n == 0:
        return columns, n
    col = columns.get(fuse)
    runs = col.pending_runs if col is not None else None
    if runs is None:
        return _apply_where(columns, predicate, n)
    run_values, run_lengths = runs
    run_mask = _where_mask({fuse: decoded_column(fuse, run_values)}, predicate)
    if run_mask.all():
        return columns, n
    row_idx = np.flatnonzero(np.repeat(run_mask, run_lengths))
    out: Dict[str, ExecColumn] = {}
    for name, column in columns.items():
        if name == fuse:
            out[name] = ExecColumn(
                name, runs=(run_values[run_mask], run_lengths[run_mask])
            )
        else:
            out[name] = column.take(row_idx)
    return out, int(row_idx.size)


class BatchBuffer:
    """The batch buffer of Sec. VI: a window scheduler plus the decoded
    tail its cross-batch windows need.

    :meth:`feed` returns the columns the batch's windows index, with their
    layout.  When nothing is carried these are the batch's own (direct)
    columns; otherwise the decoded tail followed by the batch's values,
    since code spaces of different batches are not comparable.
    """

    def __init__(self, window: WindowSpec):
        self.window = window
        if window.mode == MODE_TIME:
            self.scheduler = TimeWindowScheduler(window)
        else:
            self.scheduler = WindowScheduler(window)
        self._tail: Dict[str, np.ndarray] = {}

    def feed(
        self, columns: Dict[str, ExecColumn], n: int
    ) -> Tuple[Dict[str, ExecColumn], WindowLayout]:
        work = columns
        if self.scheduler.pending:
            work = {
                name: decoded_column(
                    name, np.concatenate([self._tail[name], col.values()])
                )
                for name, col in columns.items()
            }
        if self.window.mode == MODE_TIME:
            # time windows assign tuples by timestamp value: the scheduler
            # translates time bounds into index extents
            layout = self.scheduler.feed(work[self.window.time_column].values())
        else:
            layout = self.scheduler.feed(n)
        total = layout.carry + n
        self._tail = (
            {
                name: col.slice(layout.retain_start, total).values()
                for name, col in work.items()
            }
            if layout.retain_start < total
            else {}
        )
        return work, layout


class WindowAggExecutor:
    """Executes Q1/Q2/Q4/Q5/Q6-shaped plans (count or time windows)."""

    def __init__(self, plan: WindowAggPlan):
        self.plan = plan
        self.buffer = BatchBuffer(plan.window)
        self._referenced = sorted(plan.profile.referenced)

    def execute(self, columns: Dict[str, ExecColumn], n: int) -> QueryResult:
        plan = self.plan
        columns = {name: columns[name] for name in self._referenced}
        if plan.fuse_column:
            columns, n = _apply_where_fused(
                columns, plan.where, plan.fuse_column, n
            )
        else:
            columns, n = _apply_where(columns, plan.where, n)
        work, layout = self.buffer.feed(columns, n)
        if not layout.starts.size:
            return QueryResult.empty(plan.outputs)
        return self._run_windows(work, layout.starts, layout.ends)

    # ----- window execution ------------------------------------------------

    def _run_windows(
        self, work: Dict[str, ExecColumn], starts: np.ndarray, ends: np.ndarray
    ) -> QueryResult:
        plan = self.plan
        aggs = [o for o in plan.outputs + plan.hidden_outputs if o.kind == OUT_AGG]
        if not plan.group_keys:
            aggregates = (
                ends - starts  # count(*)
                if o.source_column is None
                else window_aggregate(work[o.source_column], starts, ends, o.agg_func)
                for o in aggs
            )
            window_ids = np.arange(starts.size, dtype=np.int64)
            return self._assemble(work, aggregates, ends - 1, window_ids)
        keys = combine_keys([work[k] for k in plan.group_keys])
        grouped = window_group_aggregate(
            keys,
            [None if o.source_column is None else work[o.source_column] for o in aggs],
            [o.agg_func for o in aggs],
            starts,
            ends,
        )
        return self._assemble(
            work,
            iter(grouped.aggregates),
            ends - 1,
            grouped.window_ids,
            dict(zip(plan.group_keys, keys.column_codes())),
            grouped.groups,
        )

    def _assemble(
        self,
        work: Dict[str, ExecColumn],
        aggregates: Iterator[np.ndarray],
        last_rows: np.ndarray,
        window_ids: np.ndarray,
        key_codes: Optional[Dict[str, np.ndarray]] = None,
        groups: Optional[np.ndarray] = None,
    ) -> QueryResult:
        """One result row per (window, group): aggregates in output order,
        keys from the group's code tuple (``key_codes[name][g]`` for group
        ``groups[row]``), other columns from the window's last row
        (``last_rows`` holds one row per window).  Each is decoded once per
        group or window and spread over the rows."""
        out: Dict[str, np.ndarray] = {}
        for o in self.plan.outputs + self.plan.hidden_outputs:
            if o.kind == OUT_AGG:
                stored = next(aggregates)
            elif o.kind in (OUT_KEY, OUT_LAST):
                col = work[o.source_column]
                if o.kind == OUT_KEY:
                    assert key_codes is not None
                    codes, spread = key_codes[o.source_column], groups
                else:
                    (col, codes), spread = _window_last(col, last_rows), window_ids
                # lint: force-decode bounded, one value per group or window
                stored = col.decode(codes)[spread]
            else:
                raise PlanningError(f"unsupported output kind {o.kind!r} here")
            out[o.name] = _convert_output(o, stored)
        return self._finalize(out, window_ids)

    def _finalize(
        self, out: Dict[str, np.ndarray], window_ids: np.ndarray
    ) -> QueryResult:
        """HAVING filter, per-window ORDER BY/LIMIT, drop hidden columns."""
        plan = self.plan
        visible = [o.name for o in plan.outputs]
        n_rows = len(next(iter(out.values()))) if out else 0
        if plan.having is not None and n_rows:
            mask = _predicate_mask(
                plan.having,
                lambda pred: _COMPARE[pred.op](out[pred.output], pred.literal),
            )
            if not mask.all():
                out = {name: arr[mask] for name, arr in out.items()}
                window_ids = window_ids[mask]
                n_rows = int(mask.sum())
        if plan.order_by and n_rows:
            out, n_rows = self._order_and_limit(out, window_ids, n_rows)
        return QueryResult(
            columns={name: out[name] for name in visible}, n_rows=n_rows
        )

    def _order_and_limit(
        self, out: Dict[str, np.ndarray], window_ids: np.ndarray, n_rows: int
    ) -> Tuple[Dict[str, np.ndarray], int]:
        """Sort rows within each window and apply the per-window LIMIT.

        Ties on the explicit keys are broken by every visible output
        column, so the emitted row order (and any LIMIT cut) is identical
        across the direct, decoded and scalar-reference execution paths:
        aggregates are computed in the stored integer domain, making the
        sort key values bit-equal path to path.
        """
        plan = self.plan
        # np.lexsort keys run least- to most-significant: visible-column
        # tie-break first, then the ORDER BY keys (first key most
        # significant among them), then the window id outermost so rows
        # never interleave across windows
        lex_keys: List[np.ndarray] = [
            out[name]
            for name in sorted((o.name for o in plan.outputs), reverse=True)
        ]
        for key in reversed(plan.order_by):
            arr = out[key.output]
            if key.desc:
                # ~x = -x - 1 reverses integer order without wrapping at
                # the dtype minimum, where -x would overflow
                arr = ~arr if arr.dtype.kind in "iu" else -arr
            lex_keys.append(arr)
        lex_keys.append(window_ids)
        order = np.lexsort(tuple(lex_keys))
        if plan.limit is not None:
            wid_sorted = window_ids[order]
            change = np.empty(n_rows, dtype=bool)
            change[0] = True
            change[1:] = wid_sorted[1:] != wid_sorted[:-1]
            run_starts = np.nonzero(change)[0]
            run_ids = np.cumsum(change) - 1
            rank = np.arange(n_rows) - run_starts[run_ids]
            order = order[rank < plan.limit]
        return {name: arr[order] for name, arr in out.items()}, int(order.size)


class PassthroughExecutor:
    """Executes ``[range unbounded]`` plans (per-tuple projection)."""

    def __init__(self, plan: PassthroughPlan):
        self.plan = plan

    def compute_stored(
        self, columns: Dict[str, ExecColumn], n: int
    ) -> Dict[str, np.ndarray]:
        """Projected output columns in the stored integer domain."""
        plan = self.plan
        columns, n = _apply_where(columns, plan.where, n)
        indices = np.arange(n, dtype=np.int64)
        if plan.distinct:
            dedup_cols = [
                columns[o.source_column]
                for o in plan.outputs
                if o.kind == OUT_COLUMN
            ]
            if dedup_cols:
                indices = distinct_indices(dedup_cols, indices)
        values_cache: Dict[str, np.ndarray] = {}

        def col_values(name: str) -> np.ndarray:
            if name not in values_cache:
                values_cache[name] = columns[name].values()
            return values_cache[name]

        out: Dict[str, np.ndarray] = {}
        for o in plan.outputs:
            if o.kind == OUT_COLUMN:
                col = columns[o.source_column]
                # output delivery of the post-WHERE/DISTINCT selection:
                # lint: force-decode bounded, selected output rows only
                out[o.name] = col.decode(col.codes[indices])
            elif o.kind == OUT_EXPR:
                refs = {
                    c.name: col_values(c.name)[indices]
                    for c in expr_columns(o.expr)
                }
                out[o.name] = np.asarray(_eval_expr(o.expr, refs), dtype=np.int64)
            else:
                raise PlanningError(f"unsupported output kind {o.kind!r} here")
        return out

    def execute(self, columns: Dict[str, ExecColumn], n: int) -> QueryResult:
        stored = self.compute_stored(columns, n)
        out = {
            o.name: _convert_output(o, stored[o.name]) for o in self.plan.outputs
        }
        n_rows = len(next(iter(out.values()))) if out else 0
        return QueryResult(columns=out, n_rows=n_rows)


class JoinExecutor:
    """Executes join shapes: derived stream -> window ⋈ partition state(s).

    One pass per batch, for the comma form (one inner side probing its
    own key, any per-key depth) and the explicit ``JOIN ... ON`` form
    alike: the distinct probe tuples of every window, one latest-row
    lookup per side over its state plus the batch, and NaN/probe-value
    fills for LEFT OUTER misses.  A lone ``rows 1`` side probed on its own
    key (Q3) keeps no state: it answers from the window's own rows.
    """

    def __init__(self, plan: JoinPlan):
        self.plan = plan
        self.derived = PassthroughExecutor(plan.derived) if plan.derived else None
        self.buffer = BatchBuffer(plan.window)
        self.sides = plan.sides
        only = self.sides[0]
        # one side probing its own key for its latest row: that row is the
        # key's last occurrence in the window itself, so no state is kept
        self.self_keyed = (
            len(self.sides) == 1
            and only.probe_column == only.key_column
            and only.window.rows == 1
        )
        self.states = (
            []
            if self.self_keyed
            else [PartitionWindowState(side.window) for side in self.sides]
        )
        self._absorbed = 0       # global count of rows absorbed into state
        self._merged_start = 0   # global index of merged[0]
        # columns the join consumes from the (derived) stream
        needed = {o.source_column for o in plan.outputs}
        for side in self.sides:
            needed.add(side.probe_column)
            needed.add(side.key_column)
        if plan.window.mode == MODE_TIME:
            needed.add(plan.window.time_column)
        self._needed = sorted(needed)

    def execute(self, columns: Dict[str, ExecColumn], n: int) -> QueryResult:
        plan = self.plan
        if self.derived is not None:
            stored = self.derived.compute_stored(columns, n)
        else:
            stored = {name: columns[name].values() for name in self._needed}
        n_rows = len(next(iter(stored.values()))) if stored else 0
        work, layout = self.buffer.feed(
            {name: decoded_column(name, stored[name]) for name in self._needed},
            n_rows,
        )
        merged = {name: col.codes for name, col in work.items()}
        result = (
            self._join(merged, layout.starts, layout.ends)
            if layout.starts.size
            else QueryResult.empty(plan.outputs)
        )
        # rows the buffer drops unread (between sampling windows) still
        # arrived: absorb them before they leave
        drop = self._merged_start + layout.retain_start
        if drop > self._absorbed:
            lo = self._absorbed - self._merged_start
            pending = {
                name: merged[name][lo : layout.retain_start] for name in self._needed
            }
            for state in self.states:
                state.update(pending)
            self._absorbed = drop
        self._merged_start += layout.retain_start
        return result

    def _join(
        self, merged: Dict[str, np.ndarray], starts: np.ndarray, ends: np.ndarray
    ) -> QueryResult:
        """Every window of the batch against the state as of its end."""
        plan = self.plan
        hi = int(ends[-1])
        probe_columns = [merged[side.probe_column][:hi] for side in self.sides]
        pair_window, pair_row = window_distinct(probe_columns, starts, ends)
        if self.self_keyed:
            # pair_row is the key's last row in the window: its latest row
            if not pair_row.size:
                return QueryResult.empty(plan.outputs)
            out = {
                o.name: _convert_output(o, merged[o.source_column][pair_row])
                for o in plan.outputs
            }
            return QueryResult(columns=out, n_rows=int(pair_row.size))
        # the state absorbs [lo, last end) once
        lo = self._absorbed - self._merged_start
        self._absorbed = max(self._absorbed, self._merged_start + hi)
        pending = {name: merged[name][lo:hi] for name in self._needed}
        parts = [state.merge(pending) for state in self.states]
        probes = [col[pair_row] for col in probe_columns]
        probe_of, rows = semi_join_latest(
            parts,
            probes,
            np.maximum(ends[pair_window] - lo, 0),
            [side.window.rows for side in self.sides],
            [side.outer for side in self.sides],
        )
        for state, part in zip(self.states, parts):
            state.retain(part)
        if not probe_of.size:
            return QueryResult.empty(plan.outputs)
        out: Dict[str, np.ndarray] = {}
        for o, i in zip(plan.outputs, plan.output_sides):
            side, row = self.sides[i], rows[i]
            missing = row < 0
            vals = np.zeros(row.size, dtype=np.int64)
            vals[~missing] = parts[i].columns[o.source_column][row[~missing]]
            if side.outer and o.source_column == side.key_column:
                # the ON equality pins the key of a missed side to the
                # probe value, so the key column never goes NULL
                vals[missing] = probes[i][probe_of[missing]]
            converted = _convert_output(o, vals)
            if side.outer and o.source_column != side.key_column:
                converted[missing] = np.nan
            out[o.name] = converted
        return QueryResult(columns=out, n_rows=int(probe_of.size))


def make_executor(plan: Plan):
    """Instantiate the executor matching a plan's shape."""
    if isinstance(plan, WindowAggPlan):
        return WindowAggExecutor(plan)
    if isinstance(plan, JoinPlan):
        return JoinExecutor(plan)
    if isinstance(plan, PassthroughPlan):
        return PassthroughExecutor(plan)
    raise PlanningError(f"no executor for plan type {type(plan).__name__}")
