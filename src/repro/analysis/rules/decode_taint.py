"""CSD009: operators and planning never decode outside the DecodeCache.

The paper's central claim is that operators execute *on compressed
data*; any stray ``decode()``/``decompress()`` on a hot path silently
reintroduces the decompress-then-query model the engine exists to
avoid.  The only sanctioned full-column decode is
``DecodeCache.decompress``, the server's one stateless decode point,
where each decode is counted and booked as decompress time; anything
else needs a ``# lint: force-decode`` waiver stating why the decode is
bounded (e.g. one value per window).

A decode site is a :data:`DECODE_METHODS` call on a non-cache receiver.
The rule checks the direct path (``repro.operators``,
``repro.core.server``) and planning (``repro.optimizer``, which is
metadata-only: rules price representations through the cost model):
their own decode sites, and every site reachable from them over the call
graph through any number of helper hops, with propagation cut at the
sanctioned decode layers — ``DecodeCache`` itself and the codec package,
whose whole job is decoding.

Findings anchor at the offending call site and carry the witness call
chain from the entry point, so the fix (route through the cache, or
waive at the site) is obvious.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Tuple

from ..callgraph import CallGraph, FunctionNode
from ..dataflow import find_flows
from ..findings import Finding
from ..project import Project
from .base import GraphRule

#: method names that materialize values from compressed representations
DECODE_METHODS = frozenset(
    {"decode", "decompress", "decode_codes", "decode_all", "force_decompress"}
)

#: receiver names through which a full decode is sanctioned
CACHE_RECEIVERS = frozenset({"cache", "decode_cache"})

#: the direct-on-compressed execution path and planning (closure followed)
ENTRY_PATHS: Tuple[str, ...] = (
    "src/repro/operators/",
    "src/repro/core/server.py",
    "src/repro/optimizer/",
)

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
        "DecodeCache.decompress, the server's one counted decode "
        "point.  The rule flags every other decode call in those "
        "packages and follows the call graph from them "
        "through any number of helper hops, unless the path "
        "passes through DecodeCache or the codec package; each site "
        "needs a '# lint: force-decode' waiver explaining why the decode "
        "is bounded and intentional."
    )

    def finish(self, project: Project) -> Iterable[Finding]:
        graph = project.graph
        if not isinstance(graph, CallGraph):
            return
        entries = [n.qualname for n in graph.functions_in(ENTRY_PATHS)]
        sanitizers = {n.qualname for n in graph.functions_in(SANCTIONED_PATHS)}
        for flow in find_flows(graph, entries, _decode_sites, sanitizers):
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
