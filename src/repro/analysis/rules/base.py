"""Rule base class and shared AST helpers.

A rule is a stateless-per-run object with two hooks: :meth:`visit` runs
once per applicable file, :meth:`finish` once per project (for
cross-file contracts such as scalar parity).  Rules emit findings via
:meth:`flag`; the engine handles waivers and the baseline.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Dict, Iterable, Iterator, Optional, Set, Union

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
    :class:`~repro.analysis.callgraph.CallGraph` and
    ``project.edge_taints`` an edge-tag accumulator before ``finish``
    is called.  Per-file visiting is off by default; a rule that also
    needs syntax the summaries do not keep (import statements) opts in
    by overriding :meth:`applies`.
    """

    needs_graph: ClassVar[bool] = True

    def applies(self, sf: SourceFile) -> bool:
        return False

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


# ----- shared AST helpers ----------------------------------------------


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name -> canonical dotted path, from a module's imports.

    ``import numpy as np`` maps ``np -> numpy``; ``from datetime import
    datetime as dt`` maps ``dt -> datetime.datetime``.  Star imports are
    ignored.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                canonical = alias.name if alias.asname else local
                aliases[local] = canonical
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{module}.{alias.name}" if module else alias.name
    return aliases


def canonical_call_path(
    func: ast.AST, aliases: Dict[str, str]
) -> Optional[str]:
    """The canonical dotted path of a call target, resolving aliases."""
    path = dotted_name(func)
    if path is None:
        return None
    head, _, rest = path.partition(".")
    head = aliases.get(head, head)
    return f"{head}.{rest}" if rest else head


def walk_functions(tree: ast.Module) -> Iterator[ast.FunctionDef]:
    """Top-level function definitions of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node  # type: ignore[misc]


def identifier_set(tree: ast.Module) -> Set[str]:
    """Every Name id and Attribute attr appearing in a module."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names
