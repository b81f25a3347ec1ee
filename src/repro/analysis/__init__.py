"""AST-based invariant analyzer for the engine's internal contracts.

The direct-on-compressed execution model only works if a handful of
repository-wide invariants hold: operators, the server and the optimizer
never decode outside :class:`~repro.core.decode_cache.DecodeCache`, the
server's one counted decode point; the wire and codec layers raise only
their own error taxonomy; every random draw is seeded; and the
virtual-time network and serving stack never touches wall clocks.  None
of these are enforceable by the type system, so this package enforces
them mechanically: a rule-driven analyzer over Python ``ast`` (one
:class:`Rule` subclass per contract, ids ``CSD0xx``), run as
``python -m repro lint`` and gated in CI.

Syntactic rules (CSD002-CSD004, CSD007) walk one file at a time;
flow-sensitive rules (CSD009, CSD011, CSD012) run over a project-wide
call graph linked from per-file summaries (:mod:`.summaries` ->
:mod:`.callgraph`) with a small forward taint engine on top
(:mod:`.dataflow`).  Each contract has exactly one rule: the graph
rules also check the sites written inside their entry packages, so no
per-file rule repeats them.
``python -m repro lint --graph`` prints the linked graph as JSON.

See ``docs/static-analysis.md`` for the rule catalog and the
waiver-comment policy (``# lint: <tag>``).
"""

from .callgraph import CallGraph, build_callgraph
from .dataflow import TaintFlow, attribute_closure, find_flows
from .engine import AnalysisReport, default_root, run_analysis
from .findings import Finding
from .project import Project, SourceFile, load_project
from .rules import ALL_RULES, get_rules
from .summaries import summarize_file

__all__ = [
    "ALL_RULES",
    "AnalysisReport",
    "CallGraph",
    "Finding",
    "Project",
    "SourceFile",
    "TaintFlow",
    "attribute_closure",
    "build_callgraph",
    "default_root",
    "find_flows",
    "get_rules",
    "load_project",
    "run_analysis",
    "summarize_file",
]
