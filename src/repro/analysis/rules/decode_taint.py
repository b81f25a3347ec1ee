"""CSD009: operators and planning never decode outside the DecodeCache.

The paper's central claim is that operators execute *on compressed
data*; any stray ``decode()``/``decompress()`` on a hot path silently
reintroduces the decompress-then-query model the engine exists to
avoid.  The only sanctioned full-column decode is
``DecodeCache.decompress`` (content-addressed, accounted as decompress
time); anything else needs a ``# lint: force-decode`` waiver stating
why the decode is bounded (e.g. one value per window).

A decode site is a :data:`DECODE_METHODS` call on a non-cache receiver.
The rule checks two scopes:

* the direct path (``repro.operators``, ``repro.core.server``): its own
  decode sites, and every site reachable from it over the call graph
  through any number of helper hops, with propagation cut at the
  sanctioned decode layers — ``DecodeCache`` itself and the codec
  package, whose whole job is decoding;
* ``repro.optimizer``: its own decode sites.  Planning is metadata-only
  (rules price representations through the cost model), but its call
  closure is not followed: it reaches the codec calibration
  micro-benchmarks, which decode on purpose.

Findings anchor at the offending call site and carry the witness call
chain from the entry point, so the fix (route through the cache, or
waive at the site) is obvious.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Tuple

from ..callgraph import CallGraph, FunctionNode
from ..dataflow import find_flows, mark_flow_edges
from ..findings import Finding
from ..project import Project
from .base import GraphRule

#: method names that materialize values from compressed representations
DECODE_METHODS = frozenset(
    {"decode", "decompress", "decode_codes", "decode_all", "force_decompress"}
)

#: receiver names through which a full decode is sanctioned
CACHE_RECEIVERS = frozenset({"cache", "decode_cache"})

#: files on the direct-on-compressed execution path (closure followed)
DIRECT_PATHS: Tuple[str, ...] = (
    "src/repro/operators/",
    "src/repro/core/server.py",
)

#: planning code: checked site by site, closure not followed
PLAN_PATHS: Tuple[str, ...] = ("src/repro/optimizer/",)

#: paths where decoding is the sanctioned job (propagation stops here,
#: and decode sites inside them are not sinks)
SANCTIONED_PATHS: Tuple[str, ...] = (
    "src/repro/compression/",
    "src/repro/core/decode_cache.py",
)


def _decode_sites(node: FunctionNode) -> Iterator[Tuple[str, int]]:
    """Suspicious materialization call sites of one function summary."""
    if node.relpath.startswith(SANCTIONED_PATHS):
        return
    for site in node.summary.get("sites", []):
        line = site.get("line", node.line)
        if site.get("strcodec"):
            continue  # bytes.decode("utf-8"): a text codec, not a column
        if site["kind"] == "attr":
            parts = site["path"].split(".")
            if parts[-1] not in DECODE_METHODS:
                continue
            if len(parts) >= 2 and parts[-2] in CACHE_RECEIVERS:
                continue
            yield site["path"], line
        elif site["kind"] == "method":
            if site["method"] in DECODE_METHODS:
                yield site["method"], line


class DecodeTaintRule(GraphRule):
    rule_id = "CSD009"
    title = "decode-taint"
    waiver_tag = "force-decode"
    rationale = (
        "Direct-on-compressed operators, the server hot loop and the "
        "optimizer may only materialize values through "
        "DecodeCache.decompress.  The rule flags every other decode "
        "call in those packages and, from the direct path, follows the "
        "call graph through any number of helper hops, unless the path "
        "passes through DecodeCache or the codec package; each site "
        "needs a '# lint: force-decode' waiver explaining why the decode "
        "is bounded and intentional."
    )

    def finish(self, project: Project) -> Iterable[Finding]:
        graph = project.graph
        if not isinstance(graph, CallGraph):
            return
        entries = [n.qualname for n in graph.functions_in(DIRECT_PATHS)]
        sanitizers = {
            n.qualname
            for n in graph.functions_in(SANCTIONED_PATHS)
        }
        planners = {n.qualname for n in graph.functions_in(PLAN_PATHS)}
        flows = find_flows(graph, entries, _decode_sites, sanitizers)
        reached = {flow.node for flow in flows}
        # every planner is an entry and a stop: its own sites, no closure
        flows += [
            flow
            for flow in find_flows(graph, planners, _decode_sites, planners)
            if flow.node not in reached
        ]
        for flow in flows:
            mark_flow_edges(project.edge_taints, flow, self.title)
            node = graph.function(flow.node)
            assert node is not None
            yield self.flag_at(
                project,
                node.relpath,
                flow.line,
                f"{flow.detail}() materializes compressed data on the "
                f"direct or planning path: {flow.render_path()}; route "
                "through DecodeCache or waive at this site with "
                "'# lint: force-decode <why bounded>'",
            )
