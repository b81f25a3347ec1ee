"""CSD011: the wire and codec paths raise only the typed taxonomy.

Callers distinguish failing subsystems by exception type alone: the
recovery transport NACKs on :class:`WireFormatError`, the adaptive
selector skips codecs on :class:`CodecError`, and the differential
oracle treats anything else as an engine bug.  A stray ``ValueError``
on a wire path therefore breaks fault recovery and fuzzing in ways no
test pinpoints.  Class names resolve through the linked class hierarchy,
project-wide.  Two checks:

* raises written inside ``repro.wire`` / ``repro.compression`` must
  derive from that package's own root (:data:`PACKAGE_TAXONOMY`);
* every raise reachable over the call graph from those packages must
  resolve to the engine's typed :class:`ReproError` tree, and findings
  carry the witness call chain.  (Other subsystems raising their own
  typed errors on a wire-reachable path is correct: the serializer
  drives the whole selector/cost-model stack, and callers branch on the
  ReproError tree.)  Control-flow raises (``StopIteration``,
  ``NotImplementedError`` on ABC stubs …) are not errors callers branch
  on and stay allowed there.

Re-raising a caught variable (``raise exc``) is not a new type and is
never flagged.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Set, Tuple

from ..callgraph import CallGraph, FunctionNode
from ..dataflow import find_flows
from ..findings import Finding
from ..project import Project
from .base import GraphRule

#: package prefix -> root exception classes its own raises must derive from
PACKAGE_TAXONOMY: Dict[str, Tuple[str, ...]] = {
    "src/repro/wire/": ("WireFormatError",),
    "src/repro/compression/": ("CodecError",),
}

#: taxonomy roots a wire/codec call path may raise (union of the
#: per-package roots: wire code legitimately surfaces codec failures)
TAXONOMY_ROOTS: Tuple[str, ...] = tuple(
    sorted({root for roots in PACKAGE_TAXONOMY.values() for root in roots})
)

#: the engine-wide typed taxonomy root.  Wire call paths reach deep
#: into the selector/cost-model/channel stack (StreamSerializer drives
#: compress_batch), and those layers raising their *own* typed errors
#: (ChannelError, CalibrationError …) is correct — callers branch on
#: the ReproError tree.  The blind spot the closure check covers is a
#: helper raising an *untyped* exception (bare Exception, ValueError)
#: that no caller can attribute to a subsystem.
ENGINE_TAXONOMY_ROOT = "ReproError"

#: raises that are control flow or programming-error signals, not
#: subsystem errors the transport/selector branch on
CONTROL_FLOW_RAISES = frozenset(
    {
        "StopIteration",
        "StopAsyncIteration",
        "NotImplementedError",
        "AssertionError",
        "KeyboardInterrupt",
        "SystemExit",
        "TypeError",
    }
)


def _package_of(node: FunctionNode) -> str:
    """The taxonomy package prefix a function lives in ('' if none)."""
    return next((p for p in PACKAGE_TAXONOMY if node.relpath.startswith(p)), "")


def _taxonomy(graph: CallGraph, roots: Tuple[str, ...]) -> Set[str]:
    """Leaf names of the ``roots`` classes and of every class under them."""
    tops = [q for q, c in graph.classes.items() if c.name in roots]
    return set(roots) | {graph.classes[q].name for q in graph.subclasses(tops)}


class ExceptionFlowRule(GraphRule):
    rule_id = "CSD011"
    title = "taxonomy-flow"
    waiver_tag = "taxonomy-flow"
    rationale = (
        "The recovery transport, adaptive selector and differential "
        "oracle all branch on exception type.  Raises inside the "
        "wire/codec packages must stay in that package's taxonomy "
        "(WireFormatError/CodecError), and every raise reachable from "
        "them through helper modules must stay in the ReproError tree, "
        "with the call chain as evidence."
    )

    def finish(self, project: Project) -> Iterable[Finding]:
        graph = project.graph
        if not isinstance(graph, CallGraph):
            return
        allowed = {
            prefix: _taxonomy(graph, roots)
            for prefix, roots in PACKAGE_TAXONOMY.items()
        }
        allowed[""] = _taxonomy(
            graph, TAXONOMY_ROOTS + (ENGINE_TAXONOMY_ROOT,)
        ) | CONTROL_FLOW_RAISES

        def raise_facts(node: FunctionNode) -> Iterator[Tuple[str, int]]:
            ok = allowed[_package_of(node)]
            for raised in node.summary.get("raises", []):
                if raised["name"] not in ok:
                    yield raised["name"], raised["line"]

        entries = [n.qualname for n in graph.functions_in(tuple(PACKAGE_TAXONOMY))]
        seen: Set[Tuple[str, int, str]] = set()
        for flow in find_flows(graph, entries, raise_facts):
            node = graph.function(flow.node)
            assert node is not None
            key = (node.relpath, flow.line, flow.detail)
            if key in seen:
                continue
            seen.add(key)
            package = _package_of(node)
            if package:
                message = (
                    f"{package.split('/')[2]} package raises "
                    f"{flow.detail}; its taxonomy allows only "
                    f"{' / '.join(PACKAGE_TAXONOMY[package])} subclasses "
                    "so callers can branch on subsystem"
                )
            else:
                message = (
                    f"raise {flow.detail} is reachable from a wire/codec "
                    f"path: {flow.render_path()}; raise a typed "
                    f"{ENGINE_TAXONOMY_ROOT}-taxonomy subclass "
                    f"({'/'.join(TAXONOMY_ROOTS)} for wire/codec code) so "
                    "the transport and selector can branch on subsystem"
                )
            yield self.flag_at(
                project,
                node.relpath,
                flow.line,
                f"{message}, or waive with '# lint: taxonomy-flow <why>'",
            )
