"""Rule base classes.

A rule is a stateless-per-run object with two hooks: :meth:`visit` runs
once per applicable file, :meth:`finish` once per project (for
cross-file contracts such as scalar parity).  Rules emit findings via
:meth:`flag`; the engine handles waivers.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterable, Union

from ..findings import Finding
from ..project import Project, SourceFile


class Rule:
    """One mechanically-checkable repository contract."""

    rule_id: ClassVar[str] = "CSD000"
    title: ClassVar[str] = ""
    #: tag accepted in ``# lint: <tag>`` comments to waive this rule
    waiver_tag: ClassVar[str] = ""
    #: one-paragraph rationale shown by ``lint --list-rules``
    rationale: ClassVar[str] = ""
    #: flow-sensitive rules set this; the engine links the call graph
    #: once (``project.graph``) before any such rule runs
    needs_graph: ClassVar[bool] = False

    def applies(self, sf: SourceFile) -> bool:
        return True

    def visit(self, sf: SourceFile, project: Project) -> Iterable[Finding]:
        return ()

    def finish(self, project: Project) -> Iterable[Finding]:
        return ()

    def flag(
        self,
        sf: SourceFile,
        node: Union[ast.AST, int],
        message: str,
    ) -> Finding:
        line = node if isinstance(node, int) else node.lineno
        return Finding(
            rule=self.rule_id,
            path=sf.relpath,
            line=line,
            message=message,
            snippet=sf.snippet(line),
            waiver=self.waiver_tag,
        )


class GraphRule(Rule):
    """A flow-sensitive rule over the linked call graph.

    Graph rules run whole-project in :meth:`finish`; the engine
    guarantees ``project.graph`` is a linked
    :class:`~repro.analysis.callgraph.CallGraph` before ``finish`` is
    called.
    """

    needs_graph: ClassVar[bool] = True

    def flag_at(
        self, project: Project, relpath: str, line: int, message: str
    ) -> Finding:
        """A finding anchored at a project file/line (with snippet)."""
        sf = project.file(relpath)
        return Finding(
            rule=self.rule_id,
            path=relpath,
            line=line,
            message=message,
            snippet=sf.snippet(line) if sf is not None else "",
            waiver=self.waiver_tag,
        )
