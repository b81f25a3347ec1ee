"""The physical plan dataclasses: the execution contract of the front end.

Three plan shapes cover the dialect:

* :class:`WindowAggPlan` — single count-windowed source with optional
  group-by and aggregates (Q1, Q2, Q4, Q5, Q6);
* :class:`PassthroughPlan` — ``[range unbounded]`` per-tuple projection and
  selection, also used for derived streams (Q3's SegSpeedStr);
* :class:`JoinPlan` — sliding window ⋈ partition window equi-join with
  distinct output (Q3).

Plans are pure data: the binder (:mod:`.planner`) resolves every name and
type into the value types below, the logical IR (:mod:`.logical`) carries
them, and :func:`~.planner.lower` assembles them into one of the three
shapes.  The optimizer's decision records live here too because a plan
carries the record of how it was chosen (``plan.opt``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from ..core.query_profile import QueryProfile
from ..errors import PlanningError
from ..stream.schema import Field, Schema
from ..stream.window import WindowSpec
from .ast import Expr

OUT_KEY = "key"        # group-by key column
OUT_LAST = "last"      # non-aggregated column under windowing: last row
OUT_AGG = "aggregate"  # avg/sum/max/min/count
OUT_COLUMN = "column"  # plain per-tuple column (passthrough)
OUT_EXPR = "expr"      # arithmetic expression per tuple


@dataclass(frozen=True)
class OutputColumn:
    """One column of the query result."""

    name: str
    kind: str
    source_column: Optional[str] = None
    agg_func: Optional[str] = None
    expr: Optional[Expr] = None
    out_field: Field = Field("out")
    #: decimals of the *source* field: aggregates computed in the stored
    #: fixed-point domain are rescaled by 10**src_decimals at output time
    src_decimals: int = 0

    def __post_init__(self) -> None:
        if self.kind in (OUT_KEY, OUT_LAST, OUT_COLUMN) and not self.source_column:
            raise PlanningError(f"output {self.name!r} needs a source column")
        if self.kind == OUT_AGG and not self.agg_func:
            raise PlanningError(f"output {self.name!r} needs an aggregate function")
        if self.kind == OUT_EXPR and self.expr is None:
            raise PlanningError(f"output {self.name!r} needs an expression")


@dataclass(frozen=True)
class LiteralPredicate:
    """``column <op> literal`` in the stored integer domain (WHERE leaf)."""

    column: str
    op: str
    literal: int


@dataclass(frozen=True)
class HavingPredicate:
    """``<output> <op> literal`` over the converted (user-domain) results.

    ``output`` names either a select-list column or a hidden aggregate the
    binder added solely for the HAVING evaluation.
    """

    output: str
    op: str
    literal: float


@dataclass(frozen=True)
class PredicateGroup:
    """AND/OR tree over predicate leaves (evaluated as boolean masks).

    WHERE trees hold :class:`LiteralPredicate` leaves over batch rows,
    HAVING trees :class:`HavingPredicate` leaves over per-window results.
    """

    op: str  # "and" | "or"
    children: Tuple["PredicateNode", ...]
    #: set by the optimizer's selection-reorder rule on a top-level AND:
    #: the executor evaluates the conjuncts as a short-circuit cascade
    #: (each child sees only the survivors of the previous one), in the
    #: order given.  Only meaningful for ``op == "and"``.
    ordered: bool = False


PredicateNode = Union[LiteralPredicate, PredicateGroup]
HavingNode = Union[HavingPredicate, PredicateGroup]


@dataclass(frozen=True)
class OrderKey:
    """One resolved ORDER BY key: an output (possibly hidden) column."""

    output: str
    desc: bool = False


@dataclass(frozen=True)
class JoinSide:
    """One partition-window side of the join.

    ``probe_column`` is the window-side column whose values probe this
    side's state; ``key_column`` is the side's partition-by column.  The
    legacy comma-form join has ``probe_column == key_column``; the
    explicit ``JOIN ... ON`` form may probe with a different column,
    which is what makes LEFT OUTER misses observable.
    """

    binding: str
    window: WindowSpec
    probe_column: str
    key_column: str
    outer: bool = False


# ----- optimizer decision records --------------------------------------


@dataclass(frozen=True)
class RuleFiring:
    """One rewrite a rule performed, with a human-readable detail."""

    rule: str
    detail: str


@dataclass(frozen=True)
class MorphDecision:
    """One mid-pipeline format morph the chosen plan performs.

    The named column arrives on the wire as ``from_codec`` and is
    recompressed server-side into ``to_codec`` before the operators that
    prefer the target layout read it.
    """

    column: str
    from_codec: str
    to_codec: str


@dataclass(frozen=True)
class OptimizerInfo:
    """What the optimizer did to one plan (surfaced in ``ServerReport``).

    ``fallback=True`` means the cost-based chooser kept the baseline plan
    shape: either no rule found a rewrite, or the rewritten plan was not
    estimated cheaper than the bound baseline.
    """

    rules_fired: Tuple[str, ...] = ()
    firings: Tuple[RuleFiring, ...] = ()
    #: estimated abstract cost of the chosen plan (arbitrary units — only
    #: comparisons between the two numbers below are meaningful)
    estimated_cost: float = 0.0
    #: estimated cost of the naive bound plan before any rewrite
    baseline_cost: float = 0.0
    #: stable hash of the chosen plan's structure (costs excluded), used
    #: to correlate EXPLAIN output with serving-layer reports
    plan_digest: str = ""
    fallback: bool = False
    #: mid-pipeline format morphs the server must perform (morph rule)
    morphs: Tuple[MorphDecision, ...] = ()


# ----- the three plan shapes ---------------------------------------------


@dataclass
class WindowAggPlan:
    stream: str
    schema: Schema
    window: WindowSpec
    outputs: Tuple[OutputColumn, ...]
    group_keys: Tuple[str, ...]
    where: Optional[PredicateNode]
    profile: QueryProfile
    #: aggregates computed only to evaluate HAVING/ORDER BY, dropped from
    #: the visible results
    hidden_outputs: Tuple[OutputColumn, ...] = ()
    having: Optional[HavingNode] = None
    #: per-window sort keys; ties are broken on every visible column so
    #: the row order is deterministic across execution paths
    order_by: Tuple[OrderKey, ...] = ()
    #: per-window row cap, applied after ORDER BY
    limit: Optional[int] = None
    #: set by the optimizer's filter+aggregate fusion rule: the WHERE
    #: predicate is single-column on this column and the executor may
    #: evaluate it at run granularity, keeping the column run-structured
    #: through aggregation (falls back to row filtering when the batch
    #: carries no run view)
    fuse_column: str = ""
    #: optimizer decision record (rules fired, costs, digest); None when
    #: the plan was lowered with zero rules
    opt: Optional[OptimizerInfo] = None


@dataclass
class PassthroughPlan:
    stream: str
    schema: Schema
    outputs: Tuple[OutputColumn, ...]
    where: Optional[PredicateNode]
    distinct: bool
    profile: QueryProfile
    #: optimizer decision record; None when lowered with zero rules
    opt: Optional[OptimizerInfo] = None


@dataclass
class JoinPlan:
    stream: str                       # physical input stream
    schema: Schema                    # physical input schema
    derived: Optional[PassthroughPlan]  # applied per batch before the join
    join_schema: Schema               # schema the join sides see
    window: WindowSpec                # probe side A (count/time window)
    outputs: Tuple[OutputColumn, ...]  # columns of the partition sides
    distinct: bool
    profile: QueryProfile
    #: all partition sides (multi-way joins have several)
    sides: Tuple[JoinSide, ...] = ()
    #: for each output, the index into ``sides`` it reads from
    output_sides: Tuple[int, ...] = ()
    #: optimizer decision record; None when lowered with zero rules
    opt: Optional[OptimizerInfo] = None


Plan = Union[WindowAggPlan, PassthroughPlan, JoinPlan]
