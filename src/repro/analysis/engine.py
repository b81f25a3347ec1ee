"""Analysis engine: run rules over a project and classify findings.

The pipeline is: load every source file once, link the call graph if a
selected rule needs it, run each rule's per-file and per-project hooks,
then split raw findings into *waived* (silenced by a ``# lint:`` comment
carrying the rule's tag) and *new*.  Files that do not parse surface as
findings of the meta-rule ``CSD000`` so they cannot hide from the rules.
Exit-code contract: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from ..errors import AnalysisError
from .callgraph import CallGraph, build_callgraph
from .findings import Finding
from .project import DEFAULT_ROOTS, load_project
from .rules import get_rules
from .rules.base import Rule

META_RULE = "CSD000"


@dataclass
class AnalysisReport:
    """Classified outcome of one analyzer run."""

    root: Path
    rules: List[str]
    files_scanned: int
    findings: List[Finding] = field(default_factory=list)
    waived: List[Finding] = field(default_factory=list)
    #: linked call graph, present when a graph rule ran or an export
    #: was requested
    graph: Optional[CallGraph] = None

    @property
    def clean(self) -> bool:
        return not self.findings

    def exit_code(self) -> int:
        return 0 if self.clean else 1

    def to_doc(self) -> Dict[str, Any]:
        return {
            "root": str(self.root),
            "rules": self.rules,
            "files_scanned": self.files_scanned,
            "findings": [f.to_doc() for f in self.findings],
            "waived": len(self.waived),
            "clean": self.clean,
            "graph_coverage": (
                self.graph.coverage() if self.graph is not None else None
            ),
        }

    def format_lines(self) -> List[str]:
        lines = []
        for finding in self.findings:
            lines.append(finding.render())
            if finding.snippet:
                lines.append(f"    {finding.snippet}")
        counts = (
            f"{self.files_scanned} files, {len(self.rules)} rules: "
            f"{len(self.findings)} finding(s), {len(self.waived)} waived"
        )
        lines.append(("FAIL " if self.findings else "OK ") + counts)
        return lines


def run_analysis(
    root: Union[str, Path],
    rule_ids: Optional[Sequence[str]] = None,
    roots: Sequence[str] = DEFAULT_ROOTS,
    build_graph: bool = False,
) -> AnalysisReport:
    """Run the analyzer over one checkout and classify its findings.

    The call graph is linked only when a selected rule declares
    ``needs_graph`` or the caller forces ``build_graph`` (``lint
    --graph``).
    """
    root = Path(root).resolve()
    project = load_project(root, roots=roots)
    rules: List[Rule] = get_rules(rule_ids)
    if build_graph or any(rule.needs_graph for rule in rules):
        project.graph = build_callgraph(project)

    raw: List[Finding] = []
    for rule in rules:
        for sf in project.files:
            if rule.applies(sf):
                raw.extend(rule.visit(sf, project))
        raw.extend(rule.finish(project))

    report = AnalysisReport(
        root=root,
        rules=[rule.rule_id for rule in rules],
        files_scanned=len(project),
        graph=project.graph if isinstance(project.graph, CallGraph) else None,
    )
    for finding in raw:
        source = project.file(finding.path)
        tags = source.waivers.get(finding.line, set()) if source else set()
        if finding.waiver and finding.waiver in tags:
            report.waived.append(finding)
        else:
            report.findings.append(finding)
    report.findings.extend(
        Finding(
            rule=META_RULE,
            path=sf.relpath,
            line=1,
            message=f"file does not parse: {sf.parse_error}",
        )
        for sf in project.files
        if sf.parse_error is not None
    )
    report.findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return report


def default_root(start: Optional[Union[str, Path]] = None) -> Path:
    """Locate the repository root (the directory with ``pyproject.toml``).

    Walks up from ``start`` (default: cwd); falls back to the source
    checkout this package sits in.
    """
    here = Path(start) if start is not None else Path.cwd()
    for candidate in (here, *here.resolve().parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate.resolve()
    checkout = Path(__file__).resolve().parents[3]
    if (checkout / "pyproject.toml").is_file():
        return checkout
    raise AnalysisError(
        "cannot locate the project root (no pyproject.toml upward of "
        f"{here}); pass --root"
    )
