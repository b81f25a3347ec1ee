"""CSD003: every random draw is seeded; no wall-clock in results.

The differential oracle, the fault injector and the golden-format
digests are only reproducible because every random draw flows through a
seeded ``np.random.Generator`` and no result depends on the wall clock.
This rule forbids the wall-clock/entropy calls of :data:`WALL_CLOCK_CALLS`
(``time.time``, ``datetime.now``, ``os.urandom``, ``secrets.*`` …), the
stdlib ``random`` module, the legacy ``np.random.*`` global generator
and *unseeded* ``np.random.default_rng()`` / ``default_rng(None)`` —
everywhere except a documented allowlist (the CLI surface).
``time.perf_counter`` is deliberately allowed: measuring elapsed time
does not change any computed result.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable

from ..findings import Finding
from ..project import Project, SourceFile
from ..summaries import (
    canonical_path,
    dotted_name,
    module_imports,
    module_name_for,
)
from .base import Rule

#: call targets that read the wall clock or ambient entropy.  CSD003
#: keeps them out of computed results, CSD010 out of the virtual-time
#: call closure
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.sleep",
        "datetime.datetime.now",
        "datetime.datetime.today",
        "datetime.datetime.utcnow",
        "datetime.date.today",
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)

#: modules every call of which draws ambient entropy
ENTROPY_MODULES = ("secrets.",)


def is_wall_clock_call(path: str) -> bool:
    """Whether a canonical call path is in the wall-clock/entropy table."""
    return path in WALL_CLOCK_CALLS or path.startswith(ENTROPY_MODULES)


#: files exempt from this rule, with the reason on record
ALLOWLIST: Dict[str, str] = {
    # the CLI is the human surface; argparse defaults and progress output
    # may reference the environment without affecting engine results
    "src/repro/cli.py": "interactive surface, not engine computation",
}

#: scan scope: engine sources and benchmarks (tests manage their own
#: seeds through hypothesis and fixtures)
SCOPE = ("src/repro/", "benchmarks/")


class DeterminismRule(Rule):
    rule_id = "CSD003"
    title = "determinism"
    waiver_tag = "nondeterminism"
    rationale = (
        "Seeded np.random.Generator draws are the only sanctioned "
        "randomness: the differential oracle replays cases byte-for-byte "
        "and the fault injector's campaigns must be reproducible from a "
        "seed alone, so wall-clock reads, stdlib random and unseeded "
        "generators are forbidden outside the documented allowlist."
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
        for node in ast.walk(sf.tree):
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
