"""CSD004: no silent exception swallows.

Callers distinguish failing subsystems by exception type alone: the
recovery transport NACKs on :class:`WireFormatError`, the adaptive
selector skips codecs on :class:`CodecError`, and the differential
oracle treats anything else as an engine bug.  A bare ``except:`` or a
swallowed ``except Exception`` therefore breaks fault recovery and
fuzzing in ways no test pinpoints.  This rule checks that nothing
anywhere uses a bare ``except:`` or an ``except Exception:`` whose body
is only ``pass``/``continue``.  (Which types the wire and codec
packages may *raise* is CSD011's contract.)
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from ..findings import Finding
from ..project import Project, SourceFile
from ..summaries import dotted_name
from .base import Rule

_SWALLOW_BODIES = (ast.Pass, ast.Continue)
_BROAD_HANDLERS = frozenset({"Exception", "BaseException"})


class ExceptionTaxonomyRule(Rule):
    rule_id = "CSD004"
    title = "exception-taxonomy"
    waiver_tag = "broad-except"
    rationale = (
        "The recovery transport, adaptive selector and differential "
        "oracle all branch on exception type; a bare 'except:' or a "
        "silently swallowed Exception corrupts those decisions without "
        "failing any test."
    )

    def visit(self, sf: SourceFile, project: Project) -> Iterable[Finding]:
        if sf.tree is None:
            return
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.flag(
                    sf,
                    node,
                    "bare 'except:' catches SystemExit/KeyboardInterrupt; "
                    "name the exception types",
                )
                continue
            name = dotted_name(node.type)
            if name in _BROAD_HANDLERS and self._is_silent(node.body):
                yield self.flag(
                    sf,
                    node,
                    f"'except {name}: pass' silently swallows every "
                    "subsystem error; narrow it or waive with "
                    "'# lint: broad-except <why>'",
                )

    @staticmethod
    def _is_silent(body: List[ast.stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, _SWALLOW_BODIES):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, ast.Constant
            ):
                continue  # docstring / ellipsis
            return False
        return True
