"""Every ``benchmarks/bench_*.py`` stays in the one benchmark lane.

``pytest benchmarks`` collects, from each script, every module-level
callable named ``bench_*`` and runs it as a test.  The lane holds only
if each script defines ``collect``, ``report`` and ``check`` (what
``common.run_bench`` runs) and binds exactly one such name,
``bench_<stem>``: a script without it silently drops out of the lane,
and any other ``bench_*`` binding (an import included) would be
collected as a second test.
"""

import ast
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"
SCRIPTS = sorted(BENCH_DIR.glob("bench_*.py"))


def module_bindings(path):
    """(name, is_function) of every top-level binding in a script."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, True
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], False
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, False


def test_scripts_are_found():
    assert SCRIPTS, f"no bench_*.py under {BENCH_DIR}"


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: path.stem)
def test_script_defines_one_bench(path):
    bindings = list(module_bindings(path))
    functions = {name for name, is_function in bindings if is_function}
    for required in ("collect", "report", "check"):
        assert required in functions, f"{path.name} defines no {required}()"
    benches = [name for name, _ in bindings if name.startswith("bench_")]
    assert benches == [path.stem], (
        f"{path.name} must bind exactly one bench_* name, "
        f"def {path.stem}(); found {benches}"
    )
    assert path.stem in functions
