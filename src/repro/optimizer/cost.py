"""Abstract cost estimation for logical plans.

The coster prices a logical tree in byte-touch units: every node pays
proportionally to the rows it processes times the byte width of the
columns it touches, with the compressed-representation discounts of the
engine's cost model (Eqs. 8/9): a run-structured column is touched at
run granularity (memory traffic divided by r', here the average run
length), a bitmap/PLWAH column answers equality predicates per plane.
When a :class:`~repro.core.calibration.CalibrationTable` is supplied the
per-codec decompress coefficients weight the scan term, hooking the
rewriter to the same calibrated numbers the adaptive selector prices
codecs with.

Only comparisons between estimates matter — the chooser accepts a
rewrite iff its estimate is strictly below the naive bound plan's.
Selectivities default to the classic textbook guesses (1/3 for ranges,
1/distinct for equality) and sharpen when column statistics are bound.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

from ..core.calibration import CalibrationTable
from ..sql.logical import (
    ColumnInfo,
    DeriveNode,
    FilterNode,
    JoinNode,
    LogicalNode,
    MorphNode,
    OrderLimitNode,
    ProjectNode,
    ScanNode,
    WindowAggNode,
)
from ..sql.plan import LiteralPredicate, PredicateGroup, PredicateNode
from ..stream.window import MODE_PARTITION, MODE_UNBOUNDED

#: codecs whose payloads the server can serve as (value, length) runs
RUN_CODECS = frozenset({"rle", "dict+rle"})
#: codecs served as bit planes for equality predicates
PLANE_CODECS = frozenset({"bitmap", "plwah", "dict+bitmap"})

#: run-to-plane morph targets of the morph rule (see rules.MorphRule)
MORPH_TARGETS = {"rle": "bitmap", "dict+rle": "dict+bitmap"}

#: assumed run length for a run codec hint without sampled statistics
DEFAULT_HINT_RUN_LENGTH = 4.0

#: assumed distinct count for a morph candidate without sampled statistics
DEFAULT_MORPH_DISTINCT = 16.0

#: default selectivities when no statistics are bound (System R lore)
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_EQ_SELECTIVITY = 0.1


@dataclass(frozen=True)
class CostContext:
    """Everything the coster knows about the data behind a plan."""

    infos: Mapping[str, ColumnInfo] = field(default_factory=dict)
    #: rows per batch the estimates are normalized to
    rows: int = 4096
    calibration: Optional[CalibrationTable] = None

    def info(self, name: str) -> ColumnInfo:
        return self.infos.get(name, ColumnInfo(name=name))


def run_length_of(info: ColumnInfo) -> float:
    """Effective average run length (1.0 = no run structure known)."""
    if info.has_stats:
        return max(info.avg_run_length, 1.0)
    if info.codec_hint in RUN_CODECS:
        return DEFAULT_HINT_RUN_LENGTH
    return 1.0


def touch_weight(info: ColumnInfo, ctx: CostContext) -> float:
    """Byte cost of materializing one row of a column out of the scan."""
    weight = float(info.size_c)
    if info.codec_hint and ctx.calibration is not None:
        timing = ctx.calibration.timings.get(info.codec_hint)
        if timing is not None:
            # normalize the codec's per-element decompress coefficient to
            # the identity codec's, so calibrated codec costs reorder the
            # scan term without changing its unit
            base = ctx.calibration.timings.get("identity")
            if base is not None and base.decompress_a > 0:
                weight *= max(timing.decompress_a / base.decompress_a, 1.0)
    if info.codec_hint in RUN_CODECS:
        weight /= run_length_of(info)
    return weight


def selectivity(pred: LiteralPredicate, info: ColumnInfo) -> float:
    """Estimated fraction of rows satisfying one literal predicate."""
    if pred.op in ("==", "!="):
        eq = (
            1.0 / max(info.distinct, 1)
            if info.has_stats and info.distinct > 0
            else DEFAULT_EQ_SELECTIVITY
        )
        return eq if pred.op == "==" else 1.0 - eq
    if not info.has_stats or info.max_value <= info.min_value:
        return DEFAULT_RANGE_SELECTIVITY
    span = float(info.max_value - info.min_value)
    frac = (pred.literal - info.min_value) / span
    frac = min(max(frac, 0.0), 1.0)
    return frac if pred.op in ("<", "<=") else 1.0 - frac


def predicate_leaf_cost(pred: LiteralPredicate, info: ColumnInfo) -> float:
    """Per-row cost of evaluating one predicate on its representation."""
    weight = float(info.size_c)
    if info.codec_hint in RUN_CODECS:
        weight /= run_length_of(info)
    elif info.codec_hint in PLANE_CODECS and pred.op in ("==", "!="):
        weight /= 8.0  # one unpacked plane instead of per-row codes
    return weight


def predicate_cost(
    node: PredicateNode, rows: float, ctx: CostContext
) -> Tuple[float, float]:
    """(evaluation cost, combined selectivity) of a predicate tree.

    An ``ordered`` AND group is priced as a cascade: each conjunct only
    evaluates the survivors of the previous one.  Unordered groups pay
    every predicate over every input row, matching the executor.
    """
    if isinstance(node, LiteralPredicate):
        info = ctx.info(node.column)
        return rows * predicate_leaf_cost(node, info), selectivity(node, info)
    assert isinstance(node, PredicateGroup)
    cost = 0.0
    if node.op == "and":
        sel = 1.0
        remaining = rows
        for child in node.children:
            child_cost, child_sel = predicate_cost(
                child, remaining if node.ordered else rows, ctx
            )
            cost += child_cost
            sel *= child_sel
            if node.ordered:
                remaining *= child_sel
        return cost, sel
    miss = 1.0
    for child in node.children:
        child_cost, child_sel = predicate_cost(child, rows, ctx)
        cost += child_cost
        miss *= 1.0 - child_sel
    return cost, 1.0 - miss


def scan_context(node: ScanNode, ctx: CostContext) -> CostContext:
    """The context with the scan's own column infos taking precedence.

    The driver builds the context from the infos the binder put on the
    scan, so this is normally the identity; it matters when a rule rewrites a scan-local
    info — the morph rule changes one column's ``codec_hint`` to the
    morph target, and the scan must be priced on that representation.
    """
    overrides = {info.name: info for info in node.infos}
    if all(ctx.infos.get(name) is info for name, info in overrides.items()):
        return ctx
    merged = dict(ctx.infos)
    merged.update(overrides)
    return dataclasses.replace(ctx, infos=merged)


def _node_cost(node: LogicalNode, ctx: CostContext) -> Tuple[float, float]:
    """(cost, output rows) of one logical subtree."""
    if isinstance(node, ScanNode):
        ctx = scan_context(node, ctx)
        rows = float(ctx.rows)
        pred_cols = (
            predicate_columns(node.predicate) if node.predicate else frozenset()
        )
        cost = 0.0
        out_rows = rows
        if node.predicate is not None:
            pcost, sel = predicate_cost(node.predicate, rows, ctx)
            cost += pcost
            out_rows = rows * sel
        for name in node.columns:
            # predicate columns are touched by the predicate itself; the
            # remaining columns only materialize for surviving rows
            touched = out_rows if name not in pred_cols else 0.0
            cost += touched * touch_weight(ctx.info(name), ctx)
        return cost, out_rows

    if isinstance(node, MorphNode):
        child_cost, rows = _node_cost(node.child, ctx)
        # conversion pays one pass over the source representation (run
        # granularity) plus building the target's planes, on every batch;
        # the global context still holds the column's *wire* info
        info = ctx.info(node.column)
        read = float(info.size_c)
        if node.from_codec in RUN_CODECS:
            read /= run_length_of(info)
        distinct = (
            float(max(info.distinct, 1))
            if info.has_stats
            else DEFAULT_MORPH_DISTINCT
        )
        build = distinct / 8.0
        return child_cost + float(ctx.rows) * (read + build), rows

    if isinstance(node, FilterNode):
        child_cost, rows = _node_cost(node.child, ctx)
        pcost, sel = predicate_cost(node.predicate, rows, ctx)
        return child_cost + pcost, rows * sel

    if isinstance(node, WindowAggNode):
        child_cost, rows = _node_cost(node.child, ctx)
        cost = child_cost
        for func, source in node.aggregates:
            if source == "*":
                continue
            info = ctx.info(source)
            touched = rows
            if node.fuse_column == source:
                touched = rows / run_length_of(info)
            cost += touched * float(info.size_c)
        for key in node.group_keys:
            cost += rows * float(ctx.info(key).size_c)
        if node.window.mode in (MODE_UNBOUNDED, MODE_PARTITION):
            out_rows = rows
        else:
            out_rows = max(rows / max(node.window.slide, 1), 1.0)
            out_rows *= max(len(node.group_keys) * 8, 1)
        return cost, out_rows

    if isinstance(node, ProjectNode):
        child_cost, rows = _node_cost(node.child, ctx)
        cost = child_cost + rows * len(node.outputs)
        if node.distinct:
            cost += rows * len(node.outputs)
        return cost, rows

    if isinstance(node, OrderLimitNode):
        child_cost, rows = _node_cost(node.child, ctx)
        cost = child_cost + rows * math.log2(rows + 2.0)
        if node.limit is not None:
            rows = min(rows, float(node.limit) * max(rows / 64.0, 1.0))
        return cost, rows

    if isinstance(node, DeriveNode):
        child_cost, rows = _node_cost(node.child, ctx)
        copies = 1 if node.shared else node.consumers
        return child_cost * copies, rows

    if isinstance(node, JoinNode):
        child_cost, rows = _node_cost(node.child, ctx)
        return child_cost + rows * 2.0 * len(node.sides), rows

    raise TypeError(f"cannot cost node type {type(node).__name__}")


def plan_cost(root: LogicalNode, ctx: CostContext) -> float:
    """Total estimated cost of a logical plan (abstract byte-touch units)."""
    cost, _rows = _node_cost(root, ctx)
    return cost


def predicate_columns(node: Optional[PredicateNode]) -> frozenset:
    """Every column referenced anywhere in a predicate tree."""
    if node is None:
        return frozenset()
    if isinstance(node, LiteralPredicate):
        return frozenset({node.column})
    out: frozenset = frozenset()
    for child in node.children:
        out |= predicate_columns(child)
    return out
