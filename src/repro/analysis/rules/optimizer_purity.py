"""CSD008: every optimizer rewrite rule is statically registered.

The optimizer's correctness story rests on the rewrite rules being
*referentially transparent*: a rule sees a logical plan plus catalogue
statistics and returns a plan — nothing else.  This rule enforces the
registration half of that story over ``src/repro/optimizer/``: every
:class:`RewriteRule` subclass must be registered in the static ``RULES``
tuple literal of :mod:`repro.optimizer.rules` — an unregistered rule
silently never runs, and a dynamically-built table defeats static
auditing of what can rewrite a plan.  (Wall-clock and entropy imports
in the optimizer are CSD010's contract, decode calls CSD009's.)
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set

from ..findings import Finding
from ..project import Project, SourceFile
from .base import Rule

OPTIMIZER_PREFIX = "src/repro/optimizer/"

RULE_BASE = "RewriteRule"
RULES_TABLE = "RULES"


def _base_names(node: ast.ClassDef) -> Set[str]:
    names: Set[str] = set()
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.add(base.id)
        elif isinstance(base, ast.Attribute):
            names.add(base.attr)
    return names


class OptimizerPurityRule(Rule):
    rule_id = "CSD008"
    title = "optimizer-purity"
    waiver_tag = "plan-transform"
    rationale = (
        "Every RewriteRule subclass must be registered in the static "
        "RULES tuple as a bare RuleClass() entry, so the active rule set "
        "is statically auditable and no rule silently never runs."
    )

    def applies(self, sf: SourceFile) -> bool:
        return sf.relpath.startswith(OPTIMIZER_PREFIX)

    def visit(self, sf: SourceFile, project: Project) -> Iterable[Finding]:
        if sf.tree is None:
            return
        subclasses: List[ast.ClassDef] = []
        registered: Set[str] = set()
        table_node = None
        for node in sf.tree.body:
            if isinstance(node, ast.ClassDef):
                if RULE_BASE in _base_names(node):
                    subclasses.append(node)
                continue
            target = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value = node.target, node.value
            else:
                continue
            if not (isinstance(target, ast.Name) and target.id == RULES_TABLE):
                continue
            table_node = node
            if not isinstance(value, ast.Tuple):
                yield self.flag(
                    sf,
                    node,
                    "RULES must be a static tuple literal of rule "
                    "instances, not a computed value",
                )
                continue
            for element in value.elts:
                if (
                    isinstance(element, ast.Call)
                    and isinstance(element.func, ast.Name)
                    and not element.args
                    and not element.keywords
                ):
                    registered.add(element.func.id)
                else:
                    yield self.flag(
                        sf,
                        element,
                        "RULES entries must be bare RuleClass() "
                        "instantiations so the active rule set is "
                        "statically readable",
                    )
        if subclasses and table_node is None:
            for cls in subclasses:
                yield self.flag(
                    sf,
                    cls,
                    f"RewriteRule subclass {cls.name!r} defined in a "
                    "module with no static RULES table; unregistered "
                    "rules never run",
                )
            return
        for cls in subclasses:
            if cls.name not in registered:
                yield self.flag(
                    sf,
                    cls,
                    f"RewriteRule subclass {cls.name!r} is not "
                    "registered in the static RULES table",
                )
