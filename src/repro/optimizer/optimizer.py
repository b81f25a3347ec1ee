"""The optimizer driver: rewrite, choose, lower — and the one entry point.

The plan path runs in one direction::

    parse -> bind(catalogue) -> logical IR -> RULES -> lower -> Plan

:func:`plan_for_engine` sequences it for every consumer (engine, CLI,
oracle).  :func:`optimize_plan` is the rule stage: run every rule in
the static table over the tree the binder emitted (each rule's rewrite
survives only if the cost model prices it strictly cheaper), then have
the chooser compare the final tree against that naive baseline — if
rewriting did not help, the baseline ships unchanged (``fallback=True``).
The chosen tree is lowered once, together with the
:class:`OptimizerInfo` decision record that ``ServerReport`` and
``repro explain`` surface.  Skipping the rule stage (``optimize=False``)
lowers the binder's tree as it stands.

The differential oracle's optimized leg holds every optimized plan to
bit-equality with its zero-rule twin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Union

import numpy as np

from ..core.calibration import CalibrationTable
from ..sql.ast import Script
from ..sql.logical import LogicalNode, MorphNode, find_scan, iter_nodes
from ..sql.parser import parse
from ..sql.plan import MorphDecision, OptimizerInfo, Plan
from ..sql.planner import Planner, lower
from ..stats import ColumnStats
from ..stream.schema import Schema
from .cost import CostContext, plan_cost
from .explain import plan_digest
from .rules import RULES


@dataclass
class OptimizeResult:
    """A planned query: the physical plan plus the tree it was lowered from."""

    plan: Plan                 # the physical plan to execute
    root: LogicalNode          # the chosen logical tree (for rendering)
    baseline_root: LogicalNode  # the naive tree the binder produced
    info: Optional[OptimizerInfo]  # None when no rule stage ran


def stats_from_columns(
    schema: Schema, columns: Mapping[str, np.ndarray]
) -> Dict[str, ColumnStats]:
    """Column statistics from stored-domain value arrays (e.g. a sample)."""
    out: Dict[str, ColumnStats] = {}
    for f in schema:
        values = columns.get(f.name)
        if values is None or len(values) == 0:
            continue
        out[f.name] = ColumnStats.from_values(
            np.asarray(values, dtype=np.int64), size_c=f.size
        )
    return out


def optimize_plan(
    baseline: LogicalNode,
    rows: int = 4096,
    calibration: Optional[CalibrationTable] = None,
) -> OptimizeResult:
    """Rewrite a bound tree under the cost model, choose, and lower."""
    ctx = CostContext(
        infos={info.name: info for info in find_scan(baseline).infos},
        rows=rows,
        calibration=calibration,
    )
    baseline_cost = plan_cost(baseline, ctx)

    root = baseline
    all_firings = []
    for rule in RULES:
        root, firings = rule.apply(root, ctx)
        all_firings.extend(firings)

    estimated_cost = plan_cost(root, ctx)
    fallback = not all_firings or estimated_cost >= baseline_cost
    if fallback:
        root = baseline
        estimated_cost = baseline_cost
        all_firings = []

    morphs = tuple(
        MorphDecision(
            column=n.column, from_codec=n.from_codec, to_codec=n.to_codec
        )
        for n in iter_nodes(root)
        if isinstance(n, MorphNode)
    )

    info = OptimizerInfo(
        rules_fired=tuple(dict.fromkeys(f.rule for f in all_firings)),
        firings=tuple(all_firings),
        estimated_cost=estimated_cost,
        baseline_cost=baseline_cost,
        plan_digest=plan_digest(root),
        fallback=fallback,
        morphs=morphs,
    )
    return OptimizeResult(
        plan=lower(root, info), root=root, baseline_root=baseline, info=info
    )


def plan_for_engine(
    catalog: Dict[str, Schema],
    query: Union[str, Script],
    optimize: bool = True,
    codec_hint: str = "",
    calibration: Optional[CalibrationTable] = None,
    stats: Optional[Mapping[str, ColumnStats]] = None,
) -> OptimizeResult:
    """Parse, bind, (by default) optimize and lower a query (SQL text,
    or a script a caller built as AST nodes).

    ``codec_hint`` names a pinned codec (the engine's ``static:<name>``
    modes) so the rules can price run/plane representations; adaptive
    modes pass no hint and rules that need run evidence refuse.
    ``stats`` are sampled statistics of the scanned stream's columns.
    ``optimize=False`` lowers the bound tree with zero rules applied.
    """
    script = parse(query) if isinstance(query, str) else query
    root = Planner(catalog, codec_hint=codec_hint, stats=stats).bind(script)
    if optimize:
        return optimize_plan(root, calibration=calibration)
    return OptimizeResult(plan=lower(root), root=root, baseline_root=root, info=None)
