"""CSD002: every public kernel dispatches to a tested scalar oracle.

PR 4's vectorized kernels are only trustworthy because each one carries
a tuple-at-a-time reference implementation (`compression/scalar_ref.py`)
and a `scalar_reference_mode()` dispatch that swaps the whole engine
onto those oracles.  This rule keeps the pairing airtight: a public
function in `compression/kernels.py` must (a) begin with the
`using_scalar_reference()` dispatch guard returning a `scalar_ref.<fn>`
call, (b) name a function that actually exists in `scalar_ref.py`, and
(c) have both halves of the pair exercised by the equivalence test
module.  Helpers shared by both modes can be waived with
``# lint: scalar-parity``.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Optional, Set

from ..findings import Finding
from ..project import Project
from ..summaries import dotted_name
from .base import Rule

KERNELS_PATH = "src/repro/compression/kernels.py"
SCALAR_REF_PATH = "src/repro/compression/scalar_ref.py"
TEST_MODULE_PATH = "tests/test_vectorized_kernels.py"

#: public names in kernels.py that are dispatch machinery, not kernels
DISPATCH_MACHINERY = frozenset(
    {"using_scalar_reference", "scalar_reference_mode"}
)


def _walk_functions(tree: ast.Module) -> Iterator[ast.FunctionDef]:
    """Top-level function definitions of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node  # type: ignore[misc]


def _identifier_set(tree: ast.Module) -> Set[str]:
    """Every Name id and Attribute attr appearing in a module."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


class ScalarParityRule(Rule):
    rule_id = "CSD002"
    title = "scalar-parity"
    waiver_tag = "scalar-parity"
    rationale = (
        "Each public batch kernel must dispatch to a scalar_ref oracle "
        "under scalar_reference_mode(), the oracle must exist, and both "
        "must appear in tests/test_vectorized_kernels.py — otherwise the "
        "differential oracle's scalar-reference leg and the equivalence "
        "suites silently stop covering that kernel."
    )

    def finish(self, project: Project) -> Iterable[Finding]:
        kernels = project.file(KERNELS_PATH)
        if kernels is None or kernels.tree is None:
            return
        scalar = project.file(SCALAR_REF_PATH)
        tests = project.file(TEST_MODULE_PATH)
        scalar_names: Set[str] = set()
        if scalar is not None and scalar.tree is not None:
            scalar_names = {fn.name for fn in _walk_functions(scalar.tree)}
        test_names: Set[str] = set()
        if tests is not None and tests.tree is not None:
            test_names = _identifier_set(tests.tree)

        for fn in _walk_functions(kernels.tree):
            if fn.name.startswith("_") or fn.name in DISPATCH_MACHINERY:
                continue
            target = self._dispatch_target(fn)
            if target is None:
                yield self.flag(
                    kernels,
                    fn,
                    f"public kernel {fn.name}() has no "
                    "using_scalar_reference() dispatch to a scalar_ref "
                    "oracle",
                )
                continue
            if scalar is not None and target not in scalar_names:
                yield self.flag(
                    kernels,
                    fn,
                    f"kernel {fn.name}() dispatches to scalar_ref."
                    f"{target}, which does not exist in scalar_ref.py",
                )
                continue
            if tests is not None:
                missing = [
                    name
                    for name in (fn.name, target)
                    if name not in test_names
                ]
                if missing:
                    yield self.flag(
                        kernels,
                        fn,
                        f"kernel pair ({fn.name}, scalar_ref.{target}) "
                        f"not exercised by {TEST_MODULE_PATH}: "
                        f"{', '.join(missing)} never referenced",
                    )

    @staticmethod
    def _dispatch_target(fn: ast.FunctionDef) -> Optional[str]:
        """The scalar_ref function this kernel dispatches to, if any."""
        for node in ast.walk(fn):
            if not isinstance(node, ast.If):
                continue
            test = node.test
            if not (
                isinstance(test, ast.Call)
                and dotted_name(test.func) == "using_scalar_reference"
            ):
                continue
            for stmt in ast.walk(node):
                if (
                    isinstance(stmt, ast.Return)
                    and isinstance(stmt.value, ast.Call)
                ):
                    path = dotted_name(stmt.value.func)
                    if path is not None and path.startswith("scalar_ref."):
                        return path.split(".", 1)[1]
        return None
