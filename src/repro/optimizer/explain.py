"""Stable text/JSON renderings of logical plans, plus the plan digest.

The renderings are the contract behind ``python -m repro explain`` and
the golden snapshot tests: output depends only on the plan's structure
(never on timings, dict ordering, or floating-point cost values), so a
golden file changes exactly when a plan shape changes.

The digest hashes the same structural dict the JSON rendering is built
from, minus the decision block — two plans with the same shape have the
same digest regardless of which statistics were bound when they were
optimized.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional

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
)
from ..sql.plan import (
    LiteralPredicate,
    OptimizerInfo,
    PredicateGroup,
    PredicateNode,
)
from ..stream.window import WindowSpec


def render_predicate(node: PredicateNode) -> str:
    if isinstance(node, LiteralPredicate):
        return f"{node.column} {node.op} {node.literal}"
    assert isinstance(node, PredicateGroup)
    joined = f" {node.op} ".join(
        f"({render_predicate(c)})" for c in node.children
    )
    if node.op == "and" and node.ordered:
        return f"[cascade] {joined}"
    return joined


def render_window(window: WindowSpec) -> str:
    if window.mode == "count":
        return f"count({window.size} slide {window.slide})"
    if window.mode == "time":
        return (
            f"time({window.size} slide {window.slide} on {window.time_column})"
        )
    if window.mode == "partition":
        return f"partition({window.partition_by} rows {window.rows})"
    return "unbounded"


def _node_dict(node: LogicalNode) -> Dict[str, Any]:
    """Structural dict for one node (children under ``input``)."""
    if isinstance(node, ScanNode):
        d: Dict[str, Any] = {
            "node": "scan",
            "stream": node.stream,
            "columns": list(node.columns),
        }
        if node.predicate is not None:
            d["predicate"] = render_predicate(node.predicate)
        hints = sorted(
            {i.codec_hint for i in node.infos if i.codec_hint}
        )
        if hints:
            d["codec"] = hints[0] if len(hints) == 1 else hints
        return d
    if isinstance(node, MorphNode):
        return {
            "node": "morph",
            "column": node.column,
            "from": node.from_codec,
            "to": node.to_codec,
            "input": _node_dict(node.child),
        }
    if isinstance(node, FilterNode):
        return {
            "node": "filter",
            "predicate": render_predicate(node.predicate),
            "input": _node_dict(node.child),
        }
    if isinstance(node, WindowAggNode):
        d = {
            "node": "window-agg",
            "window": render_window(node.window),
            "aggregates": [
                f"{func}({source})" for func, source in node.aggregates
            ],
            "input": _node_dict(node.child),
        }
        if node.group_keys:
            d["group_by"] = list(node.group_keys)
        if node.fuse_column:
            d["fused_on"] = node.fuse_column
        return d
    if isinstance(node, ProjectNode):
        d = {
            "node": "project",
            "outputs": list(node.outputs),
            "input": _node_dict(node.child),
        }
        if node.distinct:
            d["distinct"] = True
        return d
    if isinstance(node, OrderLimitNode):
        d = {
            "node": "order-limit",
            "keys": [
                f"{name} {'desc' if desc else 'asc'}"
                for name, desc in node.keys
            ],
            "input": _node_dict(node.child),
        }
        if node.limit is not None:
            d["limit"] = node.limit
        return d
    if isinstance(node, DeriveNode):
        d = {
            "node": "derive",
            "name": node.name,
            "consumers": node.consumers,
            "input": _node_dict(node.child),
        }
        if node.shared:
            d["shared"] = True
        return d
    if isinstance(node, JoinNode):
        return {
            "node": "join",
            "window": render_window(node.window),
            "sides": [
                f"{s.binding}[{s.key_column}] "
                f"{'left outer' if s.outer else 'inner'} on {s.probe_column}"
                for s in node.sides
            ],
            "input": _node_dict(node.child),
        }
    raise TypeError(f"cannot render node type {type(node).__name__}")


def plan_digest(root: LogicalNode) -> str:
    """Short stable hash of the plan structure (costs/stats excluded)."""
    payload = json.dumps(_node_dict(root), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def render_json(
    root: LogicalNode, info: Optional[OptimizerInfo] = None
) -> Dict[str, Any]:
    doc: Dict[str, Any] = {"plan": _node_dict(root)}
    doc["digest"] = plan_digest(root)
    if info is not None:
        doc["optimizer"] = {
            "rules_fired": list(info.rules_fired),
            "firings": [
                {"rule": f.rule, "detail": f.detail} for f in info.firings
            ],
            "fallback": info.fallback,
        }
        if info.morphs:
            doc["optimizer"]["morphs"] = [
                f"{m.column}: {m.from_codec} -> {m.to_codec}"
                for m in info.morphs
            ]
    return doc


def _text_lines(d: Dict[str, Any], depth: int, out: List[str]) -> None:
    indent = "  " * depth
    label = d["node"]
    attrs = []
    for key in sorted(d):
        if key in ("node", "input"):
            continue
        value = d[key]
        if isinstance(value, list):
            value = ", ".join(str(v) for v in value)
        attrs.append(f"{key}={value}")
    line = f"{indent}-> {label}"
    if attrs:
        line += "  [" + "; ".join(attrs) + "]"
    out.append(line)
    if "input" in d:
        _text_lines(d["input"], depth + 1, out)


def render_text(
    root: LogicalNode, info: Optional[OptimizerInfo] = None
) -> str:
    lines: List[str] = []
    _text_lines(_node_dict(root), 0, lines)
    lines.append(f"digest: {plan_digest(root)}")
    if info is not None:
        if info.rules_fired:
            lines.append("rules fired: " + ", ".join(info.rules_fired))
            for f in info.firings:
                lines.append(f"  {f.rule}: {f.detail}")
        else:
            lines.append("rules fired: (none)")
        if info.fallback:
            lines.append("chooser: kept baseline plan (no cheaper rewrite)")
    return "\n".join(lines)
