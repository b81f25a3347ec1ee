"""Forward taint/dataflow over the linked call graph.

The engine is deliberately small: a taint *configuration* is three sets —
entry nodes (sources), a sink predicate over function nodes, and
sanitizer nodes that cut propagation — and a *flow* is a witness path
from an entry to a node carrying a sink fact, discovered by BFS over the
call graph with parent pointers.  Every flow-sensitive rule (CSD009,
CSD011, CSD012) is one configuration over the same graph, which keeps
the rules declarative and the traversal logic in one place.

Two engines live here:

* :func:`find_flows` — function-level taint for call-reachability rules
  (decode discipline, exception taxonomy).
* :func:`attribute_closure` — type-level reachability over the class
  attribute graph for the checkpoint-purity rule, walking annotated and
  inferred attribute types from a root class and reporting
  pickle-hostile markers along named witness paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .callgraph import CallGraph, FunctionNode

#: a sink fact: (detail, line) — what fired at the reached node
SinkFact = Tuple[str, int]


@dataclass
class TaintFlow:
    """One witness: an entry function reaching a sink fact."""

    entry: str
    node: str
    detail: str
    line: int
    #: call chain, entry first, sink-bearing node last
    path: List[str] = field(default_factory=list)

    def render_path(self) -> str:
        return " -> ".join(self.path)


def find_flows(
    graph: CallGraph,
    entries: Iterable[str],
    sink_facts: Callable[[FunctionNode], Iterable[SinkFact]],
    sanitizers: Optional[Set[str]] = None,
) -> List[TaintFlow]:
    """All witness flows from ``entries`` to nodes with sink facts.

    ``sanitizers`` terminate propagation: a sanitizer node is still
    *checked* for sink facts of its own (a sanitizer that itself sinks
    is not absolved) but nothing past it is reached through it.
    """
    sanitizers = sanitizers or set()
    parents = graph.reachable(entries, stop=sanitizers)
    flows: List[TaintFlow] = []
    for qualname in parents:
        node = graph.function(qualname)
        if node is None:
            continue
        for detail, line in sink_facts(node):
            path = graph.path_to(parents, qualname)
            flows.append(
                TaintFlow(
                    entry=path[0],
                    node=qualname,
                    detail=detail,
                    line=line,
                    path=path,
                )
            )
    return flows


# ----- class-attribute reachability (checkpoint purity) ----------------


@dataclass
class AttributeFinding:
    """One pickle-hostile fact reached from the root object graph."""

    #: dotted attribute path from the root, e.g. ``server.cache.entries``
    attr_path: str
    #: class that owns the offending attribute
    owner: str
    #: what is wrong: a marker string or ``unpicklable-type:<qualname>``
    problem: str
    line: int


def attribute_closure(
    graph: CallGraph,
    root: str,
    detached: Set[Tuple[str, str]],
    unpicklable_type_roots: Sequence[str] = (),
) -> List[AttributeFinding]:
    """Walk attribute types from ``root``; report pickle-hostile facts.

    ``root`` is a dotted class path, resolved by
    :meth:`CallGraph.resolve_class`.  ``detached`` holds ``(class leaf
    name, attr)`` pairs excluded from the pickled graph (attributes the
    checkpoint code nulls out or rebuilds on restore).
    ``unpicklable_type_roots`` are dotted-path prefixes whose instances
    never pickle (``threading.`` …).
    """
    findings: List[AttributeFinding] = []
    root_qualname = graph.resolve_class("", root)
    if root_qualname is None:
        return findings
    seen: Set[str] = {root_qualname}
    frontier: List[Tuple[str, str]] = [(root_qualname, "")]
    while frontier:
        cls_qualname, prefix = frontier.pop()
        cls = graph.classes.get(cls_qualname)
        if cls is None:
            continue
        for attr, info in sorted(cls.attrs.items()):
            if (cls.name, attr) in detached or ("*", attr) in detached:
                continue
            attr_path = f"{prefix}.{attr}" if prefix else attr
            line = info.get("line", cls.line)
            # one problem per attribute: the fix (detach or waive) is
            # the same whichever marker fired first
            markers = info.get("markers", [])
            flagged = bool(markers)
            if markers:
                findings.append(
                    AttributeFinding(
                        attr_path=attr_path,
                        owner=cls.qualname,
                        problem=markers[0],
                        line=line,
                    )
                )
            for type_path in info.get("types", []):
                if any(
                    type_path.startswith(p) for p in unpicklable_type_roots
                ):
                    if not flagged:
                        flagged = True
                        findings.append(
                            AttributeFinding(
                                attr_path=attr_path,
                                owner=cls.qualname,
                                problem=f"unpicklable-type:{type_path}",
                                line=line,
                            )
                        )
                    continue
                resolved = graph.resolve_class(cls.module, type_path)
                if resolved is not None and resolved not in seen:
                    seen.add(resolved)
                    frontier.append((resolved, attr_path))
    return findings


__all__ = [
    "AttributeFinding",
    "SinkFact",
    "TaintFlow",
    "attribute_closure",
    "find_flows",
]
