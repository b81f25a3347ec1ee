"""The rewrite rule catalogue.

Every rule is a pure plan-to-plan transform: it reads a logical tree,
returns a rewritten tree (or the input unchanged) plus a record of what
it did, and never touches compressed payloads, the wall clock, or any
mutable state (CSD009 and CSD003 enforce the first two statically).  The
base class owns the cost gate: a rule's rewrite is kept only when the
cost model prices it strictly below the plan it was handed — "refuses to
fire when it loses" is therefore a property of the framework, not of
each rule's discipline.

Rules must be registered in the static :data:`RULES` table to run; the
driver applies them in table order, threading the tree through.
"""

from __future__ import annotations

import dataclasses
from typing import ClassVar, List, Optional, Tuple

from ..sql.logical import (
    DeriveNode,
    FilterNode,
    JoinNode,
    LogicalNode,
    MorphNode,
    OrderLimitNode,
    ProjectNode,
    ScanNode,
    WindowAggNode,
    iter_nodes,
    transform,
)
from ..sql.plan import (
    LiteralPredicate,
    PredicateGroup,
    PredicateNode,
    RuleFiring,
)
from .cost import (
    MORPH_TARGETS,
    CostContext,
    plan_cost,
    predicate_columns,
    predicate_leaf_cost,
    run_length_of,
    selectivity,
)

#: relative margin a rewrite must clear to be kept — guards against
#: "wins" that are floating-point noise on an otherwise identical plan
COST_MARGIN = 1e-9

#: aggregate functions with a run-aware fast path in the executor
FUSABLE_AGGS = frozenset({"sum", "avg", "min", "max", "count"})


class RewriteRule:
    """Base class: subclasses implement :meth:`rewrite`, the framework
    prices the candidate and refuses rewrites the cost model dislikes."""

    name: ClassVar[str] = ""
    description: ClassVar[str] = ""

    def rewrite(
        self, root: LogicalNode, ctx: CostContext
    ) -> Tuple[LogicalNode, Tuple[RuleFiring, ...]]:
        raise NotImplementedError

    def apply(
        self, root: LogicalNode, ctx: CostContext
    ) -> Tuple[LogicalNode, Tuple[RuleFiring, ...]]:
        candidate, firings = self.rewrite(root, ctx)
        if not firings or candidate is root:
            return root, ()
        before = plan_cost(root, ctx)
        after = plan_cost(candidate, ctx)
        if not after < before * (1.0 - COST_MARGIN):
            return root, ()
        return candidate, firings


class ProjectionPrune(RewriteRule):
    """Shrink the scan to the columns the query references.

    The binder's naive scan emits every schema column; the column uses
    it carries name the ones any operator actually reads.  Refuses
    when the scan is already minimal or nothing is referenced (a bare
    ``count(*)`` still needs one column for row counts).
    """

    name = "prune"
    description = "project only referenced columns out of the scan"

    def rewrite(self, root, ctx):
        firings: List[RuleFiring] = []

        def visit(node: LogicalNode) -> LogicalNode:
            if not isinstance(node, ScanNode) or not node.referenced:
                return node
            keep = tuple(n for n in node.columns if n in node.referenced)
            if not keep or len(keep) == len(node.columns):
                return node
            dropped = len(node.columns) - len(keep)
            firings.append(
                RuleFiring(
                    rule=self.name,
                    detail=f"scan {node.stream}: {len(node.columns)} -> "
                    f"{len(keep)} columns ({dropped} pruned)",
                )
            )
            return dataclasses.replace(
                node,
                columns=keep,
                infos=tuple(i for i in node.infos if i.name in keep),
            )

        return transform(root, visit), tuple(firings)


class PredicatePushdown(RewriteRule):
    """Move a filter directly above a scan into the scan itself.

    Inside the scan the predicate is evaluated on the compressed
    representation (runs / planes / codes) and non-predicate columns
    only materialize for surviving rows.  The cost gate refuses the push
    when it cannot help — e.g. the scan emits only predicate columns, or
    statistics say the predicate keeps everything.
    """

    name = "pushdown"
    description = "evaluate WHERE on the compressed scan representation"

    def rewrite(self, root, ctx):
        firings: List[RuleFiring] = []

        def visit(node: LogicalNode) -> LogicalNode:
            if not isinstance(node, FilterNode):
                return node
            child = node.child
            if not isinstance(child, ScanNode) or child.predicate is not None:
                return node
            cols = predicate_columns(node.predicate)
            if not cols <= set(child.columns):
                return node
            firings.append(
                RuleFiring(
                    rule=self.name,
                    detail=f"filter on {', '.join(sorted(cols))} "
                    f"pushed into scan {child.stream}",
                )
            )
            return dataclasses.replace(child, predicate=node.predicate)

        return transform(root, visit), tuple(firings)


class SelectionReorder(RewriteRule):
    """Order a top-level AND cascade cheapest-and-most-selective first.

    Marks the conjunction ``ordered`` so the executor evaluates it as a
    short-circuit cascade (each conjunct sees only prior survivors) and
    sorts the conjuncts by estimated selectivity, then per-row cost.
    Only the *top-level* AND of a filter is eligible — that is the only
    shape the executor cascades.
    """

    name = "reorder"
    description = "cascade AND conjuncts in selectivity order"

    def _order(
        self, group: PredicateGroup, ctx: CostContext
    ) -> Optional[PredicateGroup]:
        if group.op != "and" or group.ordered or len(group.children) < 2:
            return None

        def key(pair):
            index, child = pair
            if isinstance(child, LiteralPredicate):
                info = ctx.info(child.column)
                return (
                    selectivity(child, info),
                    predicate_leaf_cost(child, info),
                    index,
                )
            # nested groups are priced conservatively: evaluate last
            return (1.0, float("inf"), index)

        ranked = sorted(enumerate(group.children), key=key)
        return dataclasses.replace(
            group, children=tuple(child for _, child in ranked), ordered=True
        )

    def rewrite(self, root, ctx):
        firings: List[RuleFiring] = []

        def visit(node: LogicalNode) -> LogicalNode:
            predicate = None
            if isinstance(node, (FilterNode, ScanNode)):
                predicate = node.predicate
            if not isinstance(predicate, PredicateGroup):
                return node
            ordered = self._order(predicate, ctx)
            if ordered is None:
                return node
            firings.append(
                RuleFiring(
                    rule=self.name,
                    detail="AND cascade ordered: "
                    + " -> ".join(
                        _brief_predicate(c) for c in ordered.children
                    ),
                )
            )
            return dataclasses.replace(node, predicate=ordered)

        return transform(root, visit), tuple(firings)


class FilterAggFusion(RewriteRule):
    """Fuse a single-column filter with a run-aware global aggregate.

    When the predicate touches exactly one column, that column feeds an
    aggregate, and the aggregation is global (no GROUP BY — the grouped
    path has no run support), the filter can be evaluated per *run* and
    the surviving runs aggregated without ever expanding to rows.  Run
    evidence is required: sampled statistics showing runs, or an RLE
    codec pinned on the stream; otherwise the cost gate sees no win and
    the rule refuses.
    """

    name = "fusion"
    description = "filter and aggregate one column at run granularity"

    def rewrite(self, root, ctx):
        firings: List[RuleFiring] = []

        def visit(node: LogicalNode) -> LogicalNode:
            if not isinstance(node, WindowAggNode):
                return node
            if node.group_keys or node.fuse_column:
                return node
            predicate = None
            if isinstance(node.child, FilterNode):
                predicate = node.child.predicate
            elif isinstance(node.child, ScanNode):
                predicate = node.child.predicate
            if predicate is None:
                return node
            cols = predicate_columns(predicate)
            if len(cols) != 1:
                return node
            (column,) = cols
            if not any(
                source == column and func in FUSABLE_AGGS
                for func, source in node.aggregates
            ):
                return node
            info = ctx.info(column)
            if run_length_of(info) <= 1.0:
                return node
            firings.append(
                RuleFiring(
                    rule=self.name,
                    detail=f"filter+aggregate fused on {column} "
                    f"(est. run length {run_length_of(info):.1f})",
                )
            )
            return dataclasses.replace(node, fuse_column=column)

        return transform(root, visit), tuple(firings)


class CommonSubplanSharing(RewriteRule):
    """Share work that the naive plan would repeat.

    Two shapes: a derived stream consumed by more than one window source
    is computed once per batch instead of once per consumer; and a
    predicate tree with repeated subterms is simplified by boolean
    identities — duplicate removal, absorption (``a OR (a AND b)`` is
    ``a``), and common-conjunct factoring out of an OR of ANDs.
    """

    name = "cse"
    description = "share derived subplans and repeated predicate terms"

    def rewrite(self, root, ctx):
        firings: List[RuleFiring] = []

        def visit(node: LogicalNode) -> LogicalNode:
            if isinstance(node, DeriveNode):
                if node.shared or node.consumers < 2:
                    return node
                firings.append(
                    RuleFiring(
                        rule=self.name,
                        detail=f"derived stream {node.name} computed once "
                        f"for {node.consumers} consumers",
                    )
                )
                return dataclasses.replace(node, shared=True)
            if isinstance(node, (FilterNode, ScanNode)):
                predicate = node.predicate
                if predicate is None:
                    return node
                simplified, notes = simplify_predicate(predicate)
                if not notes:
                    return node
                firings.append(
                    RuleFiring(
                        rule=self.name,
                        detail="predicate simplified: " + ", ".join(notes),
                    )
                )
                return dataclasses.replace(node, predicate=simplified)
            return node

        return transform(root, visit), tuple(firings)


class FormatMorph(RewriteRule):
    """Recompress a run-encoded predicate column into bitmap planes.

    Mid-pipeline format morphing: when a column arrives run-length
    encoded (``rle`` / ``dict+rle``) but the plan touches it *only*
    through equality predicates, the server can re-encode it once into
    the matching plane format (``bitmap`` / ``dict+bitmap``) and answer
    every ``==``/``!=`` literal by unpacking a single plane.  The rule
    rewrites the scanned column's hint to the morph target (so the
    downstream plan is priced on planes) and inserts a
    :class:`MorphNode` charging the one-off conversion; the framework's
    cost gate keeps the morph only when the plane savings beat that
    conversion.  Columns needing values, row positions, or any
    non-equality comparison are refused — the server applies the same
    gate at run time, so the naive run/decode path always remains the
    fallback.
    """

    name = "morph"
    description = "re-encode a run column as planes for equality predicates"

    def rewrite(self, root, ctx):
        firings: List[RuleFiring] = []
        blocked = _columns_used_outside_scan_predicates(root)

        def visit(node: LogicalNode) -> LogicalNode:
            if not isinstance(node, ScanNode) or node.predicate is None:
                return node
            candidates = []
            for column in sorted(predicate_columns(node.predicate)):
                info = node.info_of(column) or ctx.info(column)
                target = MORPH_TARGETS.get(info.codec_hint)
                if target is None or column in blocked:
                    continue
                if not _equality_only(node.predicate, column):
                    continue
                candidates.append((column, info.codec_hint, target))
            if not candidates:
                return node
            targets = {column: target for column, _, target in candidates}
            out: LogicalNode = dataclasses.replace(
                node,
                infos=tuple(
                    dataclasses.replace(i, codec_hint=targets[i.name])
                    if i.name in targets
                    else i
                    for i in node.infos
                ),
            )
            for column, source, target in candidates:
                firings.append(
                    RuleFiring(
                        rule=self.name,
                        detail=f"{column} morphed {source} -> {target} "
                        "(equality-only predicate column)",
                    )
                )
                out = MorphNode(
                    child=out,
                    column=column,
                    from_codec=source,
                    to_codec=target,
                )
            return out

        return transform(root, visit), tuple(firings)


def _equality_only(predicate: PredicateNode, column: str) -> bool:
    """Whether every leaf on ``column`` is an ``==``/``!=`` literal."""
    if isinstance(predicate, LiteralPredicate):
        return predicate.column != column or predicate.op in ("==", "!=")
    assert isinstance(predicate, PredicateGroup)
    return all(_equality_only(child, column) for child in predicate.children)


def _columns_used_outside_scan_predicates(root: LogicalNode) -> frozenset:
    """Column names any operator reads beyond a scan's predicate.

    Conservative by construction: output aliases count as used names, so
    a column shadowed by an alias is refused rather than morphed.
    """
    used: set = set()
    for node in iter_nodes(root):
        if isinstance(node, FilterNode):
            used |= predicate_columns(node.predicate)
        elif isinstance(node, WindowAggNode):
            used.update(node.group_keys)
            used.update(
                source for _, source in node.aggregates if source != "*"
            )
            if node.window.time_column:
                used.add(node.window.time_column)
        elif isinstance(node, ProjectNode):
            used.update(node.outputs)
        elif isinstance(node, OrderLimitNode):
            used.update(name for name, _ in node.keys)
        elif isinstance(node, JoinNode):
            for side in node.sides:
                used.add(side.key_column)
                used.add(side.probe_column)
    return frozenset(used)


def simplify_predicate(
    node: PredicateNode,
) -> Tuple[PredicateNode, Tuple[str, ...]]:
    """Boolean simplification preserving exact three-valued-free semantics.

    Applies, bottom-up: duplicate-child removal, single-child collapse,
    absorption, and common-conjunct factoring of an OR whose children
    are all ANDs.  Returns the (possibly new) tree and a note per
    identity applied, in deterministic order.
    """
    if isinstance(node, LiteralPredicate):
        return node, ()
    assert isinstance(node, PredicateGroup)
    notes: List[str] = []
    children: List[PredicateNode] = []
    for child in node.children:
        simplified, child_notes = simplify_predicate(child)
        notes.extend(child_notes)
        children.append(simplified)

    deduped: List[PredicateNode] = []
    for child in children:
        if child in deduped:
            notes.append(f"dedup {_brief_predicate(child)}")
        else:
            deduped.append(child)
    children = deduped

    # absorption: x OP (x OP' ...) == x  (for and/or duals)
    dual = "or" if node.op == "and" else "and"
    absorbed: List[PredicateNode] = []
    for child in children:
        eaten = False
        for other in children:
            if other is child:
                continue
            if (
                isinstance(child, PredicateGroup)
                and child.op == dual
                and other in child.children
            ):
                eaten = True
                break
        if eaten:
            notes.append(f"absorb {_brief_predicate(child)}")
        else:
            absorbed.append(child)
    children = absorbed

    if node.op == "or" and len(children) > 1:
        factored = _factor_common_conjunct(children)
        if factored is not None:
            common, rest = factored
            notes.append(f"factor {_brief_predicate(common)}")
            new = PredicateGroup(op="and", children=(common, rest))
            return new, tuple(notes)

    if len(children) == 1:
        return children[0], tuple(notes)
    if not notes:
        return node, ()
    return dataclasses.replace(node, children=tuple(children)), tuple(notes)


def _factor_common_conjunct(
    children: List[PredicateNode],
) -> Optional[Tuple[PredicateNode, PredicateNode]]:
    """``(a AND b) OR (a AND c)`` -> ``(a, b OR c)`` when ``a`` is shared."""
    if not all(
        isinstance(c, PredicateGroup) and c.op == "and" for c in children
    ):
        return None
    groups = [c for c in children if isinstance(c, PredicateGroup)]
    common = None
    for term in groups[0].children:
        if all(term in g.children for g in groups[1:]):
            common = term
            break
    if common is None:
        return None
    residuals: List[PredicateNode] = []
    for g in groups:
        remaining = tuple(c for c in g.children if c != common)
        if not remaining:
            return None  # one branch is exactly the common term: OR is common
        residuals.append(
            remaining[0]
            if len(remaining) == 1
            else dataclasses.replace(g, children=remaining)
        )
    return common, PredicateGroup(op="or", children=tuple(residuals))


def _brief_predicate(node: PredicateNode) -> str:
    if isinstance(node, LiteralPredicate):
        return f"{node.column} {node.op} {node.literal}"
    return f" {node.op} ".join(
        f"({_brief_predicate(c)})" for c in node.children
    )


#: the static rule table the driver executes, in order.
#: ``tests/test_optimizer.py`` checks that every RewriteRule subclass in
#: this package is listed here.
RULES: Tuple[RewriteRule, ...] = (
    ProjectionPrune(),
    PredicatePushdown(),
    SelectionReorder(),
    FilterAggFusion(),
    CommonSubplanSharing(),
    FormatMorph(),
)
