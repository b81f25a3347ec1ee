"""Compression-aware query optimizer: logical IR, rewrite rules, chooser.

The plan path is ``parse -> bind(catalogue) -> logical IR -> RULES ->
lower -> Plan``.  The front end (:mod:`repro.sql`) owns the IR, the
binder and the lowering; this package owns what sits between them:
``RULES`` (cost-gated rewrites: projection pruning, predicate pushdown,
selection reordering, filter+aggregate run fusion, common-subplan
sharing, format morphing), a chooser that keeps the baseline plan
whenever rewriting is not estimated cheaper, and :func:`plan_for_engine`,
the one function that sequences the whole path.  See
``docs/optimizer.md``.
"""

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
    find_scan,
    iter_nodes,
    schema_infos,
    transform,
)
from ..sql.plan import MorphDecision, OptimizerInfo, RuleFiring
from .cost import CostContext, plan_cost, predicate_columns
from .explain import plan_digest, render_json, render_text
from .optimizer import (
    OptimizeResult,
    optimize_plan,
    plan_for_engine,
    stats_from_columns,
)
from .rules import (
    RULES,
    CommonSubplanSharing,
    FilterAggFusion,
    FormatMorph,
    PredicatePushdown,
    ProjectionPrune,
    RewriteRule,
    SelectionReorder,
    simplify_predicate,
)

__all__ = [
    "CostContext",
    "ColumnInfo",
    "CommonSubplanSharing",
    "DeriveNode",
    "FilterAggFusion",
    "FilterNode",
    "FormatMorph",
    "JoinNode",
    "LogicalNode",
    "MorphDecision",
    "MorphNode",
    "OptimizeResult",
    "OptimizerInfo",
    "OrderLimitNode",
    "PredicatePushdown",
    "ProjectionPrune",
    "ProjectNode",
    "RewriteRule",
    "RuleFiring",
    "RULES",
    "ScanNode",
    "SelectionReorder",
    "WindowAggNode",
    "find_scan",
    "iter_nodes",
    "optimize_plan",
    "plan_cost",
    "plan_digest",
    "plan_for_engine",
    "predicate_columns",
    "render_json",
    "render_text",
    "schema_infos",
    "simplify_predicate",
    "stats_from_columns",
    "transform",
]
