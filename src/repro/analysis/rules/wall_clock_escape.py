"""CSD010: the virtual-time surface never touches the wall clock.

``repro.net`` simulates channels, faults and the recovery transport in
*virtual* time, ``repro.serve`` schedules restart backoff, breaker
cooldowns and admission refill on the
:class:`~repro.serve.clock.VirtualClock`, and ``repro.optimizer`` must
choose plans from (query, statistics) alone.  One wall-clock read or
entropy draw in any of them makes campaign replays, kill-and-recover
runs and EXPLAIN goldens machine-dependent.  Two checks:

* inside those three entry packages, no import of ``time``,
  ``datetime`` or ``random`` at all;
* no function transitively reachable from them over the call graph may
  call a wall-clock or entropy API — the table CSD003 reads
  (:func:`~repro.analysis.rules.determinism.is_wall_clock_call`), so a
  helper in another package cannot do it on their behalf.
  ``time.perf_counter`` stays allowed — measuring elapsed time changes
  no computed result — and propagation stops at the CSD003 allowlist
  files (the CLI surface), whose wall-clock use is documented.
"""

from __future__ import annotations

import ast
from typing import Iterable, Tuple

from ..callgraph import CallGraph
from ..dataflow import external_sink, find_flows
from ..findings import Finding
from ..project import Project, SourceFile
from .base import GraphRule
from .determinism import ALLOWLIST, is_wall_clock_call

#: entry surface: everything the virtual-time contract covers
ENTRY_PATHS: Tuple[str, ...] = (
    "src/repro/net/",
    "src/repro/serve/",
    "src/repro/optimizer/",
)

#: modules the entry packages may not import at all
FORBIDDEN_MODULES = frozenset({"time", "datetime", "random"})


class WallClockEscapeRule(GraphRule):
    rule_id = "CSD010"
    title = "wall-clock-escape"
    waiver_tag = "wall-clock"
    rationale = (
        "The network stack and serving layer run in virtual time and the "
        "optimizer plans from (query, statistics) alone, so fault "
        "campaigns, checkpoint replays and EXPLAIN output are "
        "bit-reproducible; a wall-clock or entropy import in those "
        "packages, or a wall-clock read anywhere in their transitive call "
        "closure, couples results to the host."
    )

    def applies(self, sf: SourceFile) -> bool:
        return sf.relpath.startswith(ENTRY_PATHS)

    def visit(self, sf: SourceFile, project: Project) -> Iterable[Finding]:
        if sf.tree is None:
            return
        for node in ast.walk(sf.tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module or ""]
            else:
                continue
            for module in modules:
                if module.split(".")[0] in FORBIDDEN_MODULES:
                    yield self.flag(
                        sf,
                        node,
                        f"{sf.relpath} imports {module!r}; the virtual-time "
                        "surface computes time from the virtual clock and "
                        "randomness from seeded generators",
                    )

    def finish(self, project: Project) -> Iterable[Finding]:
        graph = project.graph
        if not isinstance(graph, CallGraph):
            return
        entries = [n.qualname for n in graph.functions_in(ENTRY_PATHS)]
        sanitizers = {
            n.qualname
            for n in graph.functions_in(tuple(ALLOWLIST))
        }
        facts = external_sink(is_wall_clock_call)
        for flow in find_flows(graph, entries, facts, sanitizers):
            node = graph.function(flow.node)
            assert node is not None
            yield self.flag_at(
                project,
                node.relpath,
                flow.line,
                f"{flow.detail}() is reachable from the virtual-time "
                f"surface: {flow.render_path()}; compute the value from "
                "virtual time / seeded RNG or waive at this site with "
                "'# lint: wall-clock <why>'",
            )
