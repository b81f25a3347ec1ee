"""Tests for the AST invariant analyzer (``python -m repro lint``).

Each rule gets must-flag and must-pass fixture snippets laid out in a
temporary project tree mirroring the real checkout (the rules are
path-conditioned, so fixture files live at the same relative paths the
contracts apply to).  On top of the per-rule cases: waiver-comment
handling, CLI exit codes (0 clean / 1 findings / 2 usage) and a
self-check that the real repository is clean — the same invocation CI
gates on.
"""

import io
import json
import re
import shutil
import tokenize
from pathlib import Path

import pytest

from repro.analysis import ALL_RULES, load_project, run_analysis
from repro.analysis.project import parse_waiver_tags
from repro.analysis.summaries import ELAPSED_CLOCKS, WALL_CLOCK_CALLS
from repro.cli import main
from repro.errors import AnalysisError

REPO_ROOT = Path(__file__).resolve().parents[1]

MINIMAL = {"src/repro/placeholder.py": "X = 1\n"}

#: every registered rule id, in registry order
RULE_IDS = ("CSD002", "CSD003", "CSD004", "CSD007", "CSD009", "CSD011", "CSD012")


def make_project(tmp_path, files):
    """Write ``files`` (relpath -> source) under a tmp project root."""
    merged = dict(MINIMAL)
    merged.update(files)
    for relpath, text in merged.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return tmp_path


def run(tmp_path, files, **kwargs):
    return run_analysis(make_project(tmp_path, files), **kwargs)


def rules_of(report):
    return sorted({f.rule for f in report.findings})


def flagged_at(report):
    """(rule, path, line) of every finding, in report order."""
    return [(f.rule, f.path, f.line) for f in report.findings]


# ----- CSD009 decode-taint: sites on the direct path ---------------------


class TestDecodeDiscipline:
    def test_flags_decode_on_direct_path(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/operators/foo.py": (
                    "def f(column, x):\n"
                    "    return column.decode(x)\n"
                )
            },
            rule_ids=["CSD009"],
        )
        assert flagged_at(report) == [("CSD009", "src/repro/operators/foo.py", 2)]

    def test_flags_codec_decompress_in_server(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/core/server.py": (
                    "def f(codec, cc):\n"
                    "    return codec.decompress(cc)\n"
                )
            },
            rule_ids=["CSD009"],
        )
        assert flagged_at(report) == [("CSD009", "src/repro/core/server.py", 2)]

    def test_cache_receiver_is_sanctioned(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/core/server.py": (
                    "def f(self, codec, cc):\n"
                    "    return self.cache.decompress(codec, cc)\n"
                )
            },
            rule_ids=["CSD009"],
        )
        assert report.clean

    def test_waiver_comment_silences(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/operators/foo.py": (
                    "def f(column, x):\n"
                    "    return column.decode(x)"
                    "  # lint: force-decode (one value per window)\n"
                )
            },
            rule_ids=["CSD009"],
        )
        assert report.clean
        assert len(report.waived) == 1

    def test_outside_direct_path_not_flagged(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/stream/foo.py": (
                    "def f(column, x):\n"
                    "    return column.decode(x)\n"
                )
            },
            rule_ids=["CSD009"],
        )
        assert report.clean


# ----- CSD002 scalar-parity --------------------------------------------

GOOD_KERNELS = '''\
import scalar_ref


def using_scalar_reference():
    return False


def rle_runs(values):
    if using_scalar_reference():
        return scalar_ref.rle_runs(values)
    return values
'''

GOOD_SCALAR = "def rle_runs(values):\n    return values\n"
GOOD_TESTS = (
    "from repro.compression import kernels, scalar_ref\n\n\n"
    "def test_pair():\n"
    "    assert kernels.rle_runs([]) == scalar_ref.rle_runs([])\n"
)


def scalar_parity_project(
    kernels=GOOD_KERNELS, scalar=GOOD_SCALAR, tests=GOOD_TESTS
):
    return {
        "src/repro/compression/kernels.py": kernels,
        "src/repro/compression/scalar_ref.py": scalar,
        "tests/test_vectorized_kernels.py": tests,
    }


class TestScalarParity:
    def test_clean_pair_passes(self, tmp_path):
        report = run(tmp_path, scalar_parity_project(), rule_ids=["CSD002"])
        assert report.clean

    def test_missing_dispatch_flagged(self, tmp_path):
        kernels = GOOD_KERNELS + "\n\ndef lonely(values):\n    return values\n"
        report = run(
            tmp_path, scalar_parity_project(kernels=kernels),
            rule_ids=["CSD002"],
        )
        assert rules_of(report) == ["CSD002"]
        assert "no" in report.findings[0].message
        assert "lonely" in report.findings[0].message

    def test_dispatch_to_missing_oracle_flagged(self, tmp_path):
        kernels = GOOD_KERNELS.replace(
            "scalar_ref.rle_runs", "scalar_ref.gone"
        )
        report = run(
            tmp_path, scalar_parity_project(kernels=kernels),
            rule_ids=["CSD002"],
        )
        assert rules_of(report) == ["CSD002"]
        assert "does not exist" in report.findings[0].message

    def test_pair_missing_from_tests_flagged(self, tmp_path):
        report = run(
            tmp_path,
            scalar_parity_project(tests="def test_nothing():\n    pass\n"),
            rule_ids=["CSD002"],
        )
        assert rules_of(report) == ["CSD002"]
        assert "not exercised" in report.findings[0].message

    def test_waiver_on_def_line_above(self, tmp_path):
        kernels = GOOD_KERNELS + (
            "\n\n# lint: scalar-parity (helper shared by both modes)\n"
            "def helper(values):\n    return values\n"
        )
        report = run(
            tmp_path, scalar_parity_project(kernels=kernels),
            rule_ids=["CSD002"],
        )
        assert report.clean
        assert len(report.waived) == 1


# ----- CSD003 determinism ----------------------------------------------


class TestDeterminism:
    @pytest.mark.parametrize(
        "snippet",
        [
            "import time\n\nT = time.time()\n",
            "import time as t\n\nT = t.time_ns()\n",
            "from datetime import datetime\n\nT = datetime.now()\n",
            "import datetime\n\nT = datetime.datetime.utcnow()\n",
            "import random\n\nX = random.random()\n",
            "from random import randint\n",
            "import numpy as np\n\nR = np.random.default_rng()\n",
            "import numpy as np\n\nnp.random.seed(0)\n",
            "import numpy\n\nX = numpy.random.randint(3)\n",
            "import numpy as np\n\nR = np.random.default_rng(None)\n",
            "import numpy as np\n\nR = np.random.default_rng(seed=None)\n",
            "import time\n\ntime.sleep(0.1)\n",
            "import os\n\nK = os.urandom(8)\n",
            "import uuid\n\nU = uuid.uuid4()\n",
            "from uuid import uuid1\n\nU = uuid1()\n",
            "import secrets\n\nK = secrets.token_hex(8)\n",
        ],
    )
    def test_flags(self, tmp_path, snippet):
        report = run(
            tmp_path,
            {"src/repro/core/foo.py": snippet},
            rule_ids=["CSD003"],
        )
        assert rules_of(report) == ["CSD003"], snippet

    @pytest.mark.parametrize(
        "snippet",
        [
            "import time\n\nT = time.perf_counter()\n",
            "import numpy as np\n\nR = np.random.default_rng(42)\n",
            "import numpy as np\n\nR = np.random.default_rng(seed=7)\n",
            "import numpy as np\n\n\ndef f(kw):\n"
            "    return np.random.default_rng(**kw)\n",
            "def f(rng):\n    return rng.integers(0, 10)\n",
        ],
    )
    def test_passes(self, tmp_path, snippet):
        report = run(
            tmp_path,
            {"src/repro/core/foo.py": snippet},
            rule_ids=["CSD003"],
        )
        assert report.clean, snippet

    def test_allowlisted_files_exempt(self, tmp_path):
        files = {"src/repro/cli.py": "import time\n\nT = time.time()\n"}
        report = run(tmp_path, files, rule_ids=["CSD003"])
        assert report.clean

    def test_tests_out_of_scope(self, tmp_path):
        report = run(
            tmp_path,
            {"tests/test_foo.py": "import time\n\nT = time.time()\n"},
            rule_ids=["CSD003"],
        )
        assert report.clean


# ----- CSD004 exception-taxonomy, CSD011 raises inside wire/codec -------

ERRORS_MODULE = '''\
class ReproError(Exception):
    pass


class CodecError(ReproError):
    pass


class CodecNotApplicable(CodecError):
    pass
'''


class TestExceptionTaxonomy:
    def test_wire_raising_valueerror_flagged(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/wire/fmt.py": (
                    "def f():\n    raise ValueError('nope')\n"
                )
            },
            rule_ids=["CSD011"],
        )
        assert flagged_at(report) == [("CSD011", "src/repro/wire/fmt.py", 2)]
        assert "ValueError" in report.findings[0].message

    def test_wire_subclass_allowed(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/wire/fmt.py": (
                    "class WireFormatError(Exception):\n    pass\n\n\n"
                    "class FrameError(WireFormatError):\n    pass\n\n\n"
                    "def f():\n    raise FrameError('bad frame')\n"
                )
            },
            rule_ids=["CSD011"],
        )
        assert report.clean

    def test_compression_taxonomy_via_errors_module(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/errors.py": ERRORS_MODULE,
                "src/repro/compression/codec.py": (
                    "def f():\n    raise CodecNotApplicable('negatives')\n"
                ),
            },
            rule_ids=["CSD011"],
        )
        assert report.clean

    def test_compression_raising_outside_taxonomy_flagged(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/errors.py": ERRORS_MODULE,
                "src/repro/compression/codec.py": (
                    "def f():\n    raise RuntimeError('oops')\n"
                ),
            },
            rule_ids=["CSD011"],
        )
        assert flagged_at(report) == [
            ("CSD011", "src/repro/compression/codec.py", 2)
        ]

    def test_reraise_variable_allowed(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/wire/fmt.py": (
                    "def f():\n"
                    "    try:\n"
                    "        g()\n"
                    "    except KeyError as exc:\n"
                    "        raise exc\n"
                )
            },
            rule_ids=["CSD011"],
        )
        assert report.clean

    def test_bare_except_flagged_anywhere(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/stream/foo.py": (
                    "def f():\n"
                    "    try:\n"
                    "        g()\n"
                    "    except:\n"
                    "        raise\n"
                )
            },
            rule_ids=["CSD004"],
        )
        assert rules_of(report) == ["CSD004"]
        assert "bare" in report.findings[0].message

    def test_swallowed_exception_flagged(self, tmp_path):
        report = run(
            tmp_path,
            {
                "benchmarks/helper.py": (
                    "def f():\n"
                    "    try:\n"
                    "        g()\n"
                    "    except Exception:\n"
                    "        pass\n"
                )
            },
            rule_ids=["CSD004"],
        )
        assert rules_of(report) == ["CSD004"]
        assert "swallows" in report.findings[0].message

    def test_handled_broad_except_allowed(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/oracle/foo.py": (
                    "def f():\n"
                    "    try:\n"
                    "        return g()\n"
                    "    except Exception:\n"
                    "        return None\n"
                )
            },
            rule_ids=["CSD004"],
        )
        assert report.clean

    def test_waiver_silences_swallow(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/oracle/foo.py": (
                    "def f():\n"
                    "    try:\n"
                    "        g()\n"
                    "    except Exception:"
                    "  # lint: broad-except (best effort)\n"
                    "        pass\n"
                )
            },
            rule_ids=["CSD004"],
        )
        assert report.clean
        assert len(report.waived) == 1


# ----- CSD003 in the virtual-time packages: no clock imports at all -----


class TestVirtualTime:
    @pytest.mark.parametrize(
        "snippet",
        [
            "import time\n",
            "import datetime\n",
            "from time import sleep\n",
            "from datetime import datetime\n",
            "import random\n",
        ],
    )
    def test_flags_wall_clock_imports(self, tmp_path, snippet):
        report = run(
            tmp_path,
            {"src/repro/net/chan.py": snippet},
            rule_ids=["CSD003"],
        )
        assert flagged_at(report) == [("CSD003", "src/repro/net/chan.py", 1)], snippet

    def test_math_import_fine(self, tmp_path):
        report = run(
            tmp_path,
            {"src/repro/net/chan.py": "import math\nimport struct\n"},
            rule_ids=["CSD003"],
        )
        assert report.clean

    def test_time_outside_net_is_not_this_rules_business(self, tmp_path):
        report = run(
            tmp_path,
            {"src/repro/core/foo.py": "import time\n"},
            rule_ids=["CSD003"],
        )
        assert report.clean


# ----- CSD007 supervised-recovery, CSD003 imports in serve/ -------------


class TestSupervision:
    @pytest.mark.parametrize(
        "handler",
        [
            "except ReproError:",
            "except CodecError as exc:",
            "except WireFormatError:",
            "except Exception:",
            "except (ValueError, TransportError):",
            "except:",
        ],
    )
    def test_flags_engine_handlers_in_serve(self, tmp_path, handler):
        report = run(
            tmp_path,
            {
                "src/repro/serve/session.py": (
                    "def f(session):\n"
                    "    try:\n"
                    "        session.step()\n"
                    f"    {handler}\n"
                    "        return None\n"
                )
            },
            rule_ids=["CSD004", "CSD007"],
        )
        # a bare 'except:' is CSD004's everywhere, serve/ included
        rule = "CSD004" if handler == "except:" else "CSD007"
        assert flagged_at(report) == [
            (rule, "src/repro/serve/session.py", 4)
        ], handler

    def test_supervised_waiver_passes(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/serve/supervisor.py": (
                    "def f(runner):\n"
                    "    try:\n"
                    "        return runner.step()\n"
                    "    except ReproError as exc:  "
                    "# lint: supervised the one recovery point\n"
                    "        return contain(runner, exc)\n"
                )
            },
            rule_ids=["CSD007"],
        )
        assert report.clean

    def test_serve_error_handler_is_fine(self, tmp_path):
        # ServeError marks serving-layer misuse, not an engine fault
        report = run(
            tmp_path,
            {
                "src/repro/serve/admission.py": (
                    "def f(x):\n"
                    "    try:\n"
                    "        return parse(x)\n"
                    "    except (ServeError, KeyError):\n"
                    "        return None\n"
                )
            },
            rule_ids=["CSD007"],
        )
        assert report.clean

    @pytest.mark.parametrize(
        "snippet", ["import time\n", "from datetime import datetime\n"]
    )
    def test_flags_wall_clock_imports(self, tmp_path, snippet):
        report = run(
            tmp_path,
            {"src/repro/serve/clock.py": snippet},
            rule_ids=["CSD003"],
        )
        assert flagged_at(report) == [
            ("CSD003", "src/repro/serve/clock.py", 1)
        ], snippet

    def test_handlers_outside_serve_not_this_rules_business(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/core/foo.py": (
                    "def f():\n"
                    "    try:\n"
                    "        return g()\n"
                    "    except Exception:\n"
                    "        raise\n"
                )
            },
            rule_ids=["CSD007"],
        )
        assert report.clean


# ----- the optimizer: no decodes (CSD009), no clock imports (CSD003) -----
# (that every RewriteRule subclass is in RULES is checked at runtime by
# tests/test_optimizer.py::TestRules::test_static_table_lists_every_rule)

PURE_RULES = '''\
class RewriteRule:
    def apply(self, root, ctx):
        return root, None


class PruneRule(RewriteRule):
    def rewrite(self, root, ctx):
        return root


class FuseRule(RewriteRule):
    def rewrite(self, root, ctx):
        return root


RULES = (PruneRule(), FuseRule())
'''


class TestOptimizerPurity:
    def test_pure_rules_module_is_clean(self, tmp_path):
        report = run(
            tmp_path,
            {"src/repro/optimizer/rules.py": PURE_RULES},
            rule_ids=["CSD003", "CSD009"],
        )
        assert report.clean

    @pytest.mark.parametrize(
        "snippet",
        [
            "import time\n",
            "import datetime\n",
            "import random\n",
            "from time import perf_counter\n",
            "from random import shuffle\n",
        ],
    )
    def test_flags_wall_clock_and_entropy_imports(self, tmp_path, snippet):
        report = run(
            tmp_path,
            {"src/repro/optimizer/cost.py": snippet},
            rule_ids=["CSD003"],
        )
        assert flagged_at(report) == [
            ("CSD003", "src/repro/optimizer/cost.py", 1)
        ], snippet

    @pytest.mark.parametrize(
        "call", ["decompress", "decode", "decode_codes", "decode_all"]
    )
    def test_flags_decode_calls_at_plan_time(self, tmp_path, call):
        report = run(
            tmp_path,
            {
                "src/repro/optimizer/rules.py": (
                    f"def rewrite(col):\n    return col.{call}()\n"
                )
            },
            rule_ids=["CSD009"],
        )
        assert flagged_at(report) == [
            ("CSD009", "src/repro/optimizer/rules.py", 2)
        ], call

    def test_decode_elsewhere_is_not_this_rules_business(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/stream/feed.py": (
                    "def f(col):\n    return col.decode()\n"
                )
            },
            rule_ids=["CSD009"],
        )
        assert report.clean


# ----- waiver parsing ---------------------------------------------------


class TestWaiverParsing:
    def test_single_tag(self):
        assert parse_waiver_tags("# lint: force-decode") == {"force-decode"}

    def test_tags_with_justification(self):
        tags = parse_waiver_tags(
            "# lint: broad-except, force-decode — shrink must not crash"
        )
        assert tags == {"broad-except", "force-decode"}

    def test_disable_form_is_not_a_tag(self):
        # every rule has its own tag; there is no per-id form
        assert parse_waiver_tags("# lint: disable=CSD003") == set()

    def test_not_a_waiver(self):
        assert parse_waiver_tags("# regular comment") == set()

    def test_disable_form_does_not_waive(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/operators/foo.py": (
                    "def f(c, x):\n"
                    "    return c.decode(x)  # lint: disable=CSD009\n"
                )
            },
            rule_ids=["CSD009"],
        )
        assert flagged_at(report) == [
            ("CSD009", "src/repro/operators/foo.py", 2)
        ]
        assert report.waived == []

    def test_unrelated_tag_does_not_silence(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/operators/foo.py": (
                    "def f(c, x):\n"
                    "    return c.decode(x)  # lint: broad-except\n"
                )
            },
            rule_ids=["CSD009"],
        )
        assert not report.clean


# ----- engine / misc ----------------------------------------------------

VIOLATION = {
    "src/repro/operators/foo.py": (
        "def f(column, x):\n    return column.decode(x)\n"
    )
}


class TestEngine:
    def test_parse_error_is_a_finding(self, tmp_path):
        report = run(
            tmp_path,
            {"src/repro/core/broken.py": "def f(:\n"},
            rule_ids=["CSD009"],
        )
        assert not report.clean
        assert report.findings[0].rule == "CSD000"
        assert "parse" in report.findings[0].message

    def test_unknown_rule_raises(self, tmp_path):
        root = make_project(tmp_path, {})
        with pytest.raises(AnalysisError):
            run_analysis(root, rule_ids=["CSD999"])

    def test_pycache_ignored(self, tmp_path):
        root = make_project(
            tmp_path,
            {"src/repro/__pycache__/foo.py": "import time\ntime.time()\n"},
        )
        project = load_project(root)
        assert all("__pycache__" not in f.relpath for f in project.files)

    def test_empty_project_raises(self, tmp_path):
        with pytest.raises(AnalysisError):
            load_project(tmp_path)

    def test_json_doc_shape(self, tmp_path):
        report = run(tmp_path, VIOLATION, rule_ids=["CSD009"])
        doc = report.to_doc()
        assert doc["clean"] is False
        assert doc["findings"][0]["rule"] == "CSD009"
        assert json.loads(json.dumps(doc)) == doc


# ----- CLI --------------------------------------------------------------


class TestLintCLI:
    def test_exit_zero_on_clean_project(self, tmp_path, capsys):
        root = make_project(tmp_path, {})
        assert main(["lint", "--root", str(root)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        root = make_project(tmp_path, VIOLATION)
        assert main(["lint", "--root", str(root)]) == 1
        out = capsys.readouterr().out
        assert "CSD009" in out
        assert "FAIL" in out

    def test_exit_two_on_unknown_rule(self, tmp_path, capsys):
        root = make_project(tmp_path, {})
        assert main(["lint", "--root", str(root), "--rule", "CSD999"]) == 2
        assert "error" in capsys.readouterr().err

    def test_single_rule_selection(self, tmp_path):
        root = make_project(
            tmp_path,
            dict(VIOLATION, **{"src/repro/net/chan.py": "import time\n"}),
        )
        assert main(["lint", "--root", str(root), "--rule", "CSD003"]) == 1

    def test_json_output(self, tmp_path, capsys):
        root = make_project(tmp_path, VIOLATION)
        assert main(["lint", "--root", str(root), "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["findings"][0]["rule"] == "CSD009"

    def test_list_rules(self, tmp_path, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = {line.split()[0] for line in out.splitlines() if line[:3] == "CSD"}
        assert listed == set(RULE_IDS)

    # CSD001 was folded into CSD009 and CSD005 into CSD010, which was
    # folded into CSD003; CSD006 (bench registration) went with the bench
    # registry; CSD008 (rule registration) is a runtime test now
    @pytest.mark.parametrize(
        "rule_id", ["CSD001", "CSD005", "CSD006", "CSD008", "CSD010"]
    )
    def test_superseded_rule_ids_are_unknown(self, tmp_path, rule_id, capsys):
        root = make_project(tmp_path, {})
        assert main(["lint", "--root", str(root), "--rule", rule_id]) == 2
        assert "unknown rule" in capsys.readouterr().err

    # the summary cache, the baseline and the DOT export are gone, and
    # --graph takes no format
    @pytest.mark.parametrize(
        "argv",
        [
            ["--no-cache"],
            ["--cache", "c.json"],
            ["--baseline", "b.json"],
            ["--write-baseline"],
            ["--graph-out", "g.json"],
            ["--graph", "dot"],
        ],
    )
    def test_removed_options_are_usage_errors(self, tmp_path, argv, capsys):
        root = make_project(tmp_path, {})
        with pytest.raises(SystemExit) as exc:
            main(["lint", "--root", str(root), *argv])
        assert exc.value.code == 2

    def test_lint_writes_nothing_into_the_root(self, tmp_path, capsys):
        root = make_project(tmp_path, VIOLATION)
        before = sorted(p for p in root.rglob("*") if "__pycache__" not in p.parts)
        assert main(["lint", "--root", str(root)]) == 1
        assert main(["lint", "--root", str(root), "--graph"]) == 1
        after = sorted(p for p in root.rglob("*") if "__pycache__" not in p.parts)
        assert after == before


# ----- the repository itself is clean -----------------------------------


class TestRepositoryContracts:
    """The same check CI runs: the real repo has zero new findings."""

    def test_repo_is_clean(self):
        report = run_analysis(REPO_ROOT)
        assert report.clean, "\n".join(report.format_lines())

    def test_all_seven_rules_ran(self):
        report = run_analysis(REPO_ROOT)
        assert report.rules == list(RULE_IDS)

    def test_docs_catalog_lists_every_rule(self):
        text = (REPO_ROOT / "docs/static-analysis.md").read_text()
        catalog = text.split("## Rule catalog", 1)[1].split("\n## ", 1)[0]
        documented = re.findall(r"^\| (CSD\d{3}) \|", catalog, re.M)
        assert documented == [cls.rule_id for cls in ALL_RULES]

    def test_every_waiver_is_used(self):
        """Each ``# lint:`` comment silences at least one finding.

        A waiver whose finding went away (fixed code, a merged rule)
        would otherwise sit there as dead reviewable text.
        """
        report = run_analysis(REPO_ROOT)
        waived = {}
        for finding in report.waived:
            waived.setdefault((finding.path, finding.line), []).append(finding)
        unused = []
        for sf in load_project(REPO_ROOT).files:
            tokens = tokenize.generate_tokens(io.StringIO(sf.text).readline)
            for tok in tokens:
                if tok.type != tokenize.COMMENT:
                    continue
                tags = parse_waiver_tags(tok.string)
                if not tags:
                    continue
                line = tok.start[0]
                own_line = tok.line[: tok.start[1]].strip() == ""
                covered = [line, line + 1] if own_line else [line]
                if not any(
                    f.waiver in tags
                    for at in covered
                    for f in waived.get((sf.relpath, at), [])
                ):
                    unused.append(f"{sf.relpath}:{line}: {tok.string}")
        assert not unused, "\n".join(unused)


# ----- every kept rule catches a seeded mutation of the real tree -------

#: (rule, file, text replaced, replacement, text of the line the finding
#: anchors at): the violation each kept rule names, seeded into the real
#: source; the ``import time`` is CSD003's virtual-time clause.  Tier-1
#: passes on each of them except the unseeded generator, which
#: test_oracle's determinism test also catches.
SEEDED_MUTATIONS = [
    (
        "CSD002",
        "src/repro/compression/kernels.py",
        "    if using_scalar_reference():\n"
        "        return scalar_ref.rle_runs(values)\n",
        "",
        "def rle_runs(",
    ),
    (
        "CSD003",
        "src/repro/oracle/generator.py",
        "rng = np.random.default_rng([self.seed, int(index)])",
        "rng = np.random.default_rng()",
        "rng = np.random.default_rng()",
    ),
    (
        "CSD003",
        "src/repro/net/transport.py",
        "import struct\n",
        "import struct\nimport time\n",
        "import time",
    ),
    (
        "CSD004",
        "src/repro/stream/schema.py",
        "            return self._by_name[name]\n        except KeyError:\n",
        "            return self._by_name[name]\n        except:\n",
        "        except:",
    ),
    (
        "CSD007",
        "src/repro/serve/session.py",
        "        record = self.pipeline.step(compute_seconds=quantum)\n",
        "        try:\n"
        "            record = self.pipeline.step(compute_seconds=quantum)\n"
        "        except CodecError:\n"
        "            raise\n",
        "        except CodecError:",
    ),
    (
        "CSD009",
        "src/repro/operators/aggregation.py",
        "    extreme_codes = sliding_extreme(\n"
        '        column.codes, starts, ends, take_max=(func == "max")\n'
        "    )\n"
        "    return column.decode(extreme_codes)",
        "    values = column.decode(column.codes)\n"
        '    return sliding_extreme(values, starts, ends, take_max=(func == "max"))',
        "values = column.decode(column.codes)",
    ),
    (
        "CSD011",
        "src/repro/compression/null_suppression_variable.py",
        'raise CodecError(f"nsv column is missing meta entry {exc}")',
        'raise ValueError(f"nsv column is missing meta entry {exc}")',
        "raise ValueError(",
    ),
    (
        "CSD012",
        "src/repro/core/pipeline.py",
        "        self.arrived_tuples = 0\n",
        "        self.arrived_tuples = 0\n"
        "        self.opened_at = time.perf_counter()\n",
        "self.opened_at = time.perf_counter()",
    ),
]


def test_each_rule_catches_its_seeded_mutation(tmp_path):
    """Copy the real tree, seed one violation per rule, each in its own
    file: the findings are exactly the seeded sites, nothing else."""
    shutil.copytree(
        REPO_ROOT / "src/repro",
        tmp_path / "src/repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    kernel_tests = "tests/test_vectorized_kernels.py"
    (tmp_path / "tests").mkdir()
    shutil.copy(REPO_ROOT / kernel_tests, tmp_path / kernel_tests)
    assert len({path for _, path, *_ in SEEDED_MUTATIONS}) == len(SEEDED_MUTATIONS)
    expected = []
    for rule, relpath, old, new, anchor in SEEDED_MUTATIONS:
        path = tmp_path / relpath
        text = path.read_text()
        assert text.count(old) == 1, (relpath, old)
        lines = text.replace(old, new).split("\n")
        path.write_text("\n".join(lines))
        (line,) = [i for i, at in enumerate(lines, 1) if anchor in at]
        expected.append((rule, relpath, line))
    assert sorted(flagged_at(run_analysis(tmp_path))) == sorted(expected)


# ----- CSD009-CSD012: interprocedural graph rules ------------------------


HELPER_DECODE = {
    # the operator itself never decodes; a one-hop helper does it on
    # its behalf, so only the call graph can see it
    "src/repro/operators/filter2.py": (
        "from repro.util.expand import expand\n\n\n"
        "def scan(col):\n"
        "    return expand(col)\n"
    ),
    "src/repro/util/expand.py": (
        "def expand(col):\n"
        "    return col.codec.decode(col.payload)\n"
    ),
}


class TestDecodeTaint:
    def test_helper_hop_decode_flagged(self, tmp_path):
        report = run(tmp_path, HELPER_DECODE, rule_ids=["CSD009"])
        findings = [f for f in report.findings if f.rule == "CSD009"]
        assert len(findings) == 1
        assert findings[0].path == "src/repro/util/expand.py"
        # the witness chain from the entry point rides in the message
        assert "scan" in findings[0].message

    def test_optimizer_helper_hop_decode_flagged(self, tmp_path):
        """Planning's call closure is followed like the direct path's."""
        report = run(
            tmp_path,
            {
                "src/repro/optimizer/rules2.py": (
                    "from repro.util.peek import peek\n\n\n"
                    "def price(col):\n"
                    "    return peek(col)\n"
                ),
                "src/repro/util/peek.py": (
                    "def peek(col):\n"
                    "    return col.codec.decompress(col)\n"
                ),
            },
            rule_ids=["CSD009"],
        )
        findings = [f for f in report.findings if f.rule == "CSD009"]
        assert len(findings) == 1
        assert findings[0].path == "src/repro/util/peek.py"
        assert "price" in findings[0].message

    def test_cache_routed_helper_passes(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/operators/filter2.py": (
                    "from repro.util.expand import expand\n\n\n"
                    "def scan(col, cache):\n"
                    "    return expand(col, cache)\n"
                ),
                "src/repro/util/expand.py": (
                    "def expand(col, cache):\n"
                    "    return cache.decompress(col)\n"
                ),
            },
            rule_ids=["CSD009"],
        )
        assert report.clean

    def test_codec_package_is_sanctioned(self, tmp_path):
        """Propagation cuts at the layer whose job is decoding."""
        report = run(
            tmp_path,
            {
                "src/repro/operators/filter2.py": (
                    "from repro.compression.rle import expand\n\n\n"
                    "def scan(col):\n"
                    "    return expand(col)\n"
                ),
                "src/repro/compression/rle.py": (
                    "def expand(col):\n"
                    "    return col.codec.decode(col.payload)\n"
                ),
            },
            rule_ids=["CSD009"],
        )
        assert report.clean

    def test_waiver_at_the_helper_site(self, tmp_path):
        files = dict(HELPER_DECODE)
        files["src/repro/util/expand.py"] = (
            "def expand(col):\n"
            "    # lint: force-decode bounded, one value\n"
            "    return col.codec.decode(col.payload)\n"
        )
        report = run(tmp_path, files, rule_ids=["CSD009"])
        assert report.clean
        assert report.waived


class TestWallClockEscape:
    """A wall-clock read a helper makes on the serving layer's behalf.

    CSD003 scans every engine file, so the helper's site is flagged
    wherever its callers live; no call-graph walk is needed for it.
    """

    def test_transitive_wall_clock_flagged(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/serve/loop.py": (
                    "from repro.util.pacing import pace\n\n\n"
                    "def tick(session):\n"
                    "    return pace(session)\n"
                ),
                "src/repro/util/pacing.py": (
                    "import time\n\n\n"
                    "def pace(session):\n"
                    "    return time.sleep(0.1)\n"
                ),
            },
            rule_ids=["CSD003"],
        )
        assert flagged_at(report) == [("CSD003", "src/repro/util/pacing.py", 5)]

    def test_virtual_clock_helper_passes(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/serve/loop.py": (
                    "from repro.util.pacing import pace\n\n\n"
                    "def tick(session, clock):\n"
                    "    return pace(session, clock)\n"
                ),
                "src/repro/util/pacing.py": (
                    "def pace(session, clock):\n"
                    "    return clock.advance(1)\n"
                ),
            },
            rule_ids=["CSD003"],
        )
        assert report.clean

    @pytest.mark.parametrize(
        "call",
        ["uuid.uuid4()", "uuid.uuid1()", "secrets.token_hex(8)", "os.urandom(8)"],
    )
    def test_entropy_call_in_serve_flagged(self, tmp_path, call):
        module = call.split(".")[0]
        report = run(
            tmp_path,
            {
                "src/repro/serve/ids.py": (
                    f"import {module}\n\n\ndef new_id():\n    return {call}\n"
                ),
            },
            rule_ids=["CSD003"],
        )
        assert flagged_at(report) == [("CSD003", "src/repro/serve/ids.py", 5)]


WIRE_RERAISE = {
    # the helper module re-raises an untyped Exception on behalf of a
    # wire function, so only the call graph can see it
    "src/repro/wire/frames.py": (
        "from repro.util.checks import ensure_magic\n\n\n"
        "def read_frame(buf):\n"
        "    ensure_magic(buf)\n"
        "    return buf[4:]\n"
    ),
    "src/repro/util/checks.py": (
        "def ensure_magic(buf):\n"
        "    if buf[:4] != b'CSDB':\n"
        "        raise Exception('bad magic')\n"
    ),
}


class TestExceptionFlow:
    def test_csd004_misses_the_helper_reraise(self, tmp_path):
        """CSD004 checks handlers only; raises are CSD011's business."""
        report = run(tmp_path, WIRE_RERAISE, rule_ids=["CSD004"])
        assert report.clean

    def test_csd011_catches_it_with_the_call_chain(self, tmp_path):
        report = run(tmp_path, WIRE_RERAISE, rule_ids=["CSD011"])
        findings = [f for f in report.findings if f.rule == "CSD011"]
        assert len(findings) == 1
        assert findings[0].path == "src/repro/util/checks.py"
        assert "read_frame" in findings[0].message

    def test_typed_taxonomy_helper_passes(self, tmp_path):
        files = dict(WIRE_RERAISE)
        files["src/repro/errors.py"] = (
            "class ReproError(Exception):\n    pass\n\n\n"
            "class WireFormatError(ReproError):\n    pass\n"
        )
        files["src/repro/util/checks.py"] = (
            "from repro.errors import WireFormatError\n\n\n"
            "def ensure_magic(buf):\n"
            "    if buf[:4] != b'CSDB':\n"
            "        raise WireFormatError('bad magic')\n"
        )
        report = run(tmp_path, files, rule_ids=["CSD011"])
        assert report.clean

    def test_control_flow_raises_stay_allowed(self, tmp_path):
        files = dict(WIRE_RERAISE)
        files["src/repro/util/checks.py"] = (
            "def ensure_magic(buf):\n"
            "    raise NotImplementedError\n"
        )
        report = run(tmp_path, files, rule_ids=["CSD011"])
        assert report.clean


class TestCheckpointPurity:
    def test_thread_attribute_in_session_graph_flagged(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/serve/session2.py": (
                    "import threading\n\n\n"
                    "class TenantSession:\n"
                    "    def __init__(self):\n"
                    "        self.lock = threading.Lock()\n"
                ),
            },
            rule_ids=["CSD012"],
        )
        findings = [f for f in report.findings if f.rule == "CSD012"]
        assert len(findings) == 1
        assert "lock" in findings[0].message

    #: the composed graph: TenantSession -> Pipeline -> {server, feed, ...}
    COMPOSED = {
        "src/repro/serve/session2.py": (
            "from repro.core.pipeline2 import Pipeline\n\n\n"
            "class TenantSession:\n"
            "    def __init__(self, spec, engine):\n"
            "        self.spec = lambda: spec\n"
            "        self.pipeline: Pipeline = engine.make_pipeline()\n"
            "        self.outputs: dict = {}\n"
        ),
        "src/repro/core/pipeline2.py": (
            "from collections import deque\n"
            "from repro.core.server2 import Server\n\n\n"
            "class Pipeline:\n"
            "    def __init__(self, server: Server):\n"
            "        self.server = server\n"
            "        self._source = None\n"
            "        self.feed = deque()\n\n"
            "    def attach(self, source):\n"
            "        self._source = iter(source)\n"
        ),
        "src/repro/core/server2.py": (
            "import threading\n\n\n"
            "class Server:\n"
            "    def __init__(self):\n"
            "        self.cache = threading.Lock()\n"
        ),
    }

    def test_detached_attributes_of_the_composed_graph_pass(self, tmp_path):
        """spec, the source iterator and the shared cache are hostile to
        pickle on purpose here; the detach list is what clears them."""
        report = run(tmp_path, self.COMPOSED, rule_ids=["CSD012"])
        assert report.clean, report.format_lines()

    def test_wall_clock_attribute_behind_the_pipeline_flagged(self, tmp_path):
        files = dict(self.COMPOSED)
        files["src/repro/core/pipeline2.py"] = "import time\n" + files[
            "src/repro/core/pipeline2.py"
        ].replace(
            "        self.feed = deque()\n",
            "        self.feed = deque()\n        self.started = time.time()\n",
        )
        report = run(tmp_path, files, rule_ids=["CSD012"])
        findings = [f for f in report.findings if f.rule == "CSD012"]
        assert [f.path for f in findings] == ["src/repro/core/pipeline2.py"]
        assert "pipeline.started" in findings[0].message

    @pytest.mark.parametrize(
        "clock",
        sorted(ELAPSED_CLOCKS | WALL_CLOCK_CALLS) + ["secrets.token_hex"],
    )
    def test_every_clock_reading_in_the_graph(self, tmp_path, clock):
        """One clock table: CSD012 marks an attribute holding any clock
        reading, CSD003 forbids only the wall-clock and entropy ones."""
        pipeline = "src/repro/core/pipeline2.py"
        feed = "        self.feed = deque()\n"
        started = f"        self.started = {clock}()"
        files = dict(self.COMPOSED)
        body = files[pipeline].replace(feed, f"{feed}{started}\n")
        files[pipeline] = f"import {clock.split('.')[0]}\n{body}"
        report = run(tmp_path, files, rule_ids=["CSD003", "CSD012"])
        line = files[pipeline].split("\n").index(started) + 1
        expected = [("CSD012", pipeline, line)]
        if clock not in ELAPSED_CLOCKS:
            expected.insert(0, ("CSD003", pipeline, line))
        assert flagged_at(report) == expected

    def test_same_leaf_name_elsewhere_does_not_hide_a_class(self, tmp_path):
        """The walk resolves ``Pipeline`` through the session's import,
        not by the one class of that name in the project."""
        pipeline = "src/repro/core/pipeline2.py"
        feed = "        self.feed = deque()\n"
        files = dict(self.COMPOSED)
        files[pipeline] = files[pipeline].replace(
            feed, f"{feed}        self.order_key = lambda b: b\n"
        )
        report = run(tmp_path, files, rule_ids=["CSD012"])
        assert flagged_at(report) == [("CSD012", pipeline, 10)]
        files["src/repro/other/pipeline3.py"] = "class Pipeline:\n    pass\n"
        report = run(tmp_path, files, rule_ids=["CSD012"])
        assert flagged_at(report) == [("CSD012", pipeline, 10)]
        assert "pipeline.order_key" in report.findings[0].message

    def test_detach_list_names_what_restore_rebuilds(self):
        from repro.analysis.rules.checkpoint_purity import DETACHED_ATTRS
        from repro.serve.session import REBUILT_ON_RESTORE

        session_attrs = {a for cls, a in DETACHED_ATTRS if cls == "TenantSession"}
        assert session_attrs == set(REBUILT_ON_RESTORE)

    def test_plain_state_passes(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/serve/session2.py": (
                    "class TenantSession:\n"
                    "    def __init__(self):\n"
                    "        self.cursor: int = 0\n"
                    "        self.outputs: list = []\n"
                ),
            },
            rule_ids=["CSD012"],
        )
        assert report.clean


class TestGraphExportCLI:
    def test_graph_json_export(self, tmp_path, capsys):
        root = make_project(tmp_path, HELPER_DECODE)
        code = main(["lint", "--root", str(root), "--graph"])
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["schema_version"] >= 1
        assert doc["coverage"]["ratio"] == 1.0
        # the helper hop CSD009 follows is an edge of the printed graph
        edges = {(e["caller"], e["callee"]) for e in doc["edges"]}
        assert (
            "repro.operators.filter2.<module>.scan",
            "repro.util.expand.<module>.expand",
        ) in edges
        assert code == 1  # the fixture has a finding
