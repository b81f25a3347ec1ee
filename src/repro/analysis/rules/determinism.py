"""CSD003: every random draw is seeded; no wall-clock in results.

The differential oracle, the fault injector and the golden-format
digests are only reproducible because every random draw flows through a
seeded ``np.random.Generator`` and no result depends on the wall clock.
This rule forbids the wall-clock/entropy calls of the clock table
(:data:`~repro.analysis.summaries.WALL_CLOCK_CALLS`: ``time.time``,
``datetime.now``, ``os.urandom``, ``secrets.*`` …), the stdlib
``random`` module, the legacy ``np.random.*`` global generator and
*unseeded* ``np.random.default_rng()`` / ``default_rng(None)`` —
everywhere except a documented allowlist (the CLI surface).  The
elapsed-time clocks (``time.perf_counter``, ``monotonic``,
``process_time``) are allowed: measuring a duration does not change any
computed result.

``repro.net`` and ``repro.serve`` run in virtual time and
``repro.optimizer`` plans from (query, statistics) alone, so inside
those packages even an import of ``time``, ``datetime`` or ``random``
is flagged: a duration read there would steer recovery timing, restart
backoff, breaker cooldowns or plan choices.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Tuple

from ..findings import Finding
from ..project import Project, SourceFile
from ..summaries import (
    canonical_path,
    dotted_name,
    is_wall_clock_call,
    module_imports,
    module_name_for,
)
from .base import Rule

#: files exempt from this rule, with the reason on record
ALLOWLIST: Dict[str, str] = {
    # the CLI is the human surface; argparse defaults and progress output
    # may reference the environment without affecting engine results
    "src/repro/cli.py": "interactive surface, not engine computation",
}

#: scan scope: engine sources and benchmarks (tests manage their own
#: seeds through hypothesis and fixtures)
SCOPE = ("src/repro/", "benchmarks/")

#: the virtual-time packages, which may not import these modules at all
VIRTUAL_TIME_PATHS: Tuple[str, ...] = (
    "src/repro/net/",
    "src/repro/serve/",
    "src/repro/optimizer/",
)
CLOCK_MODULES = frozenset({"time", "datetime", "random"})


def _imported_modules(node: ast.AST) -> Iterable[str]:
    """Absolute module names an import statement names (none otherwise)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module or ""]
    return []


class DeterminismRule(Rule):
    rule_id = "CSD003"
    title = "determinism"
    waiver_tag = "nondeterminism"
    rationale = (
        "Seeded np.random.Generator draws are the only sanctioned "
        "randomness: the differential oracle replays cases byte-for-byte "
        "and the fault injector's campaigns must be reproducible from a "
        "seed alone, so wall-clock reads, stdlib random and unseeded "
        "generators are forbidden outside the documented allowlist, and "
        "the virtual-time packages (net, serve, optimizer) may not even "
        "import time, datetime or random."
    )

    def applies(self, sf: SourceFile) -> bool:
        if sf.relpath in ALLOWLIST:
            return False
        return any(sf.relpath.startswith(p) for p in SCOPE)

    def visit(self, sf: SourceFile, project: Project) -> Iterable[Finding]:
        if sf.tree is None:
            return
        aliases = module_imports(
            sf.tree,
            module_name_for(sf.relpath),
            sf.relpath.endswith("/__init__.py"),
        )
        virtual_time = sf.relpath.startswith(VIRTUAL_TIME_PATHS)
        for node in ast.walk(sf.tree):
            if virtual_time and any(
                module.split(".")[0] in CLOCK_MODULES
                for module in _imported_modules(node)
            ):
                yield self.flag(
                    sf,
                    node,
                    "a virtual-time package imports time, datetime or "
                    "random; take time from the virtual clock and "
                    "randomness from seeded generators",
                )
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                yield self.flag(
                    sf,
                    node,
                    "stdlib random is unseeded global state; use a seeded "
                    "np.random.Generator",
                )
                continue
            if not isinstance(node, ast.Call):
                continue
            path = dotted_name(node.func)
            if path is None:
                continue
            path = canonical_path(path, aliases)
            if is_wall_clock_call(path):
                yield self.flag(
                    sf,
                    node,
                    f"{path}() reads the wall clock or ambient entropy; "
                    "results must be reproducible from seeds and virtual "
                    "time",
                )
            elif path.startswith("random."):
                yield self.flag(
                    sf,
                    node,
                    f"{path}() uses the unseeded stdlib RNG; use a seeded "
                    "np.random.Generator",
                )
            elif path == "numpy.random.default_rng":
                # its one parameter is the seed: positional, ``seed=`` or
                # a ``**kwargs`` splat
                seeds = node.args[:1] + [k.value for k in node.keywords]
                if all(
                    isinstance(s, ast.Constant) and s.value is None
                    for s in seeds
                ):
                    yield self.flag(
                        sf,
                        node,
                        "np.random.default_rng() without a seed (or with "
                        "seed None) is entropy-seeded; pass an explicit "
                        "seed",
                    )
            elif path.startswith("numpy.random."):
                yield self.flag(
                    sf,
                    node,
                    f"{path}() drives numpy's legacy global RNG; use a "
                    "seeded np.random.Generator",
                )
