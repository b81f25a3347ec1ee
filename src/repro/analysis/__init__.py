"""AST-based invariant analyzer for the engine's internal contracts.

The direct-on-compressed execution model only works if a handful of
repository-wide invariants hold: operators never decompress outside the
:class:`~repro.core.decode_cache.DecodeCache` discipline, the wire and
codec layers raise only their own error taxonomy, every random draw is
seeded, and the virtual-time network stack never touches wall clocks.
None of these are enforceable by the type system, so this package
enforces them mechanically: a rule-driven analyzer over Python ``ast``
(one :class:`Rule` subclass per contract, ids ``CSD0xx``), run as
``python -m repro lint`` and gated in CI.

Syntactic rules (CSD002–CSD008) walk one file at a time; flow-sensitive
rules (CSD009–CSD012) run over a project-wide call graph linked from
digest-cached per-file summaries (:mod:`.summaries` →
:mod:`.callgraph`) with a small forward taint engine on top
(:mod:`.dataflow`).  Each contract has exactly one rule: the graph
rules also check the sites written inside their entry packages, so no
per-file rule repeats them.  ``python -m repro lint --graph dot|json``
exports the linked graph with per-edge taint annotations.

See ``docs/static-analysis.md`` for the rule catalog, the waiver-comment
policy (``# lint: <tag>``) and the committed baseline format.
"""

from .baseline import Baseline, BaselineEntry, load_baseline, write_baseline
from .callgraph import CallGraph, build_callgraph
from .dataflow import TaintFlow, attribute_closure, find_flows
from .engine import AnalysisReport, default_root, run_analysis
from .findings import Finding
from .project import Project, SourceFile, load_project
from .rules import ALL_RULES, get_rules
from .summaries import SummaryCache, summarize_file, summarize_project

__all__ = [
    "ALL_RULES",
    "AnalysisReport",
    "Baseline",
    "BaselineEntry",
    "CallGraph",
    "Finding",
    "Project",
    "SourceFile",
    "SummaryCache",
    "TaintFlow",
    "attribute_closure",
    "build_callgraph",
    "default_root",
    "find_flows",
    "get_rules",
    "load_baseline",
    "load_project",
    "run_analysis",
    "summarize_file",
    "summarize_project",
    "write_baseline",
]
