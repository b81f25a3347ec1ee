"""CSD007: the serving layer has exactly one engine-fault recovery point.

Crash containment in :mod:`repro.serve` only works if engine failures
propagate *uncaught* to the supervisor's single ``_protected_step``
handler: a stray ``except CodecError`` in a session or admission helper
would swallow a poison batch before the supervisor can disarm it,
checkpoint around it and account for it in the tenant's health.  This
rule forbids except-handlers that catch any engine/transport exception
(or ``Exception``) under ``src/repro/serve/`` unless the handler
carries a ``# lint: supervised`` waiver — which in practice only the
supervisor's recovery point does.  (A bare ``except:`` is CSD004's, in
every package; wall-clock imports are CSD003's.)
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from ..findings import Finding
from ..project import Project, SourceFile
from ..summaries import dotted_name
from .base import Rule

SERVE_PREFIX = "src/repro/serve/"

#: engine/transport exceptions a serve module must never catch itself
ENGINE_EXCEPTIONS = frozenset(
    {
        "ReproError",
        "SchemaError",
        "CodecError",
        "CodecNotApplicable",
        "QuantizationError",
        "ChannelError",
        "TransportError",
        "WireFormatError",
        "EngineError",
        "Exception",
        "BaseException",
    }
)


def _handler_names(handler: ast.ExceptHandler) -> Iterable[Optional[str]]:
    """Leaf class names caught by a handler (None for unresolvable)."""
    node = handler.type
    if node is None:
        return
    types = node.elts if isinstance(node, ast.Tuple) else [node]
    for t in types:
        path = dotted_name(t)
        yield path.split(".")[-1] if path else None


class SupervisionRule(Rule):
    rule_id = "CSD007"
    title = "supervised-recovery"
    waiver_tag = "supervised"
    rationale = (
        "Tenant crash containment relies on engine exceptions reaching "
        "the supervisor's single recovery point; a handler elsewhere in "
        "repro.serve would swallow poison batches before they can be "
        "disarmed and checkpointed around."
    )

    def applies(self, sf: SourceFile) -> bool:
        return sf.relpath.startswith(SERVE_PREFIX)

    def visit(self, sf: SourceFile, project: Project) -> Iterable[Finding]:
        if sf.tree is None:
            return
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            name = next(
                (n for n in _handler_names(node) if n in ENGINE_EXCEPTIONS),
                None,
            )
            if name is not None:
                yield self.flag(
                    sf,
                    node,
                    f"'except {name}' outside the supervisor's recovery "
                    "point hides tenant crashes from containment, "
                    "checkpointing and health accounting; waive the one "
                    "recovery point with '# lint: supervised <why>'",
                )
