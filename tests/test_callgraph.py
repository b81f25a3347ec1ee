"""Tests for the interprocedural layer: summaries, call graph, dataflow.

The call-graph builder gets dedicated coverage on the Python shapes
that defeat naive resolution — decorated functions, ``functools.
partial`` bindings, methods dispatched through the ``Codec`` ABC,
lambdas parked in ``RULES`` tables, and ``importlib`` indirection
(documented as a known-imprecise edge and asserted as such).  On top:
the taint engine's sanitizer cut, the class-attribute closure, and the
real repository's graph coverage floor (the ``--graph`` acceptance bar).
"""

import json
from pathlib import Path

from repro.analysis import (
    build_callgraph,
    default_root,
    load_project,
)
from repro.analysis.callgraph import GRAPH_SCHEMA_VERSION
from repro.analysis.dataflow import attribute_closure, find_flows
from repro.analysis.summaries import (
    module_imports,
    module_name_for,
    summarize_file,
)

REPO_ROOT = Path(__file__).resolve().parents[1]

MINIMAL = {"src/repro/placeholder.py": "X = 1\n"}


def make_project(tmp_path, files):
    merged = dict(MINIMAL)
    merged.update(files)
    for relpath, text in merged.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return load_project(tmp_path)


def graph_of(tmp_path, files):
    return build_callgraph(make_project(tmp_path, files))


def edge_set(graph):
    return {(e.caller, e.callee) for e in graph.edges}


def node_class(graph, suffix):
    """The unique class whose qualname ends with ``suffix``."""
    matches = [q for q in graph.classes if q.endswith(suffix)]
    assert len(matches) == 1, (suffix, matches)
    return matches[0]


def node(graph, suffix):
    """The unique function node whose qualname ends with ``suffix``."""
    matches = [q for q in graph.functions if q.endswith(suffix)]
    assert len(matches) == 1, (suffix, matches)
    return matches[0]


# ----- summaries --------------------------------------------------------


class TestSummaries:
    def test_module_name_for(self):
        assert module_name_for("src/repro/core/engine.py") == "repro.core.engine"
        assert module_name_for("src/repro/wire/__init__.py") == "repro.wire"
        assert module_name_for("tests/test_x.py") == "tests.test_x"

    def test_relative_imports_resolve_against_package(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "src/repro/a/b.py": (
                    "from .helpers import f\nfrom ..core import g\n"
                ),
            },
        )
        sf = project.file("src/repro/a/b.py")
        aliases = module_imports(sf.tree, "repro.a.b", is_package=False)
        assert aliases["f"] == "repro.a.helpers.f"
        assert aliases["g"] == "repro.core.g"

    def test_property_setter_pairs_stay_distinct_nodes(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "src/repro/core/x.py": (
                    "class C:\n"
                    "    @property\n"
                    "    def v(self):\n"
                    "        return 1\n"
                    "    @v.setter\n"
                    "    def v(self, value):\n"
                    "        self._v = value\n"
                )
            },
        )
        pair = [q for q in graph.functions if ".C.v" in q]
        assert len(pair) == 2

    def test_text_codec_decode_marked(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "src/repro/core/x.py": (
                    "def f(raw, col, codes):\n"
                    "    name = raw.decode('utf-8')\n"
                    "    vals = col.decode(codes)\n"
                    "    return name, vals\n"
                )
            },
        )
        doc = summarize_file(project.file("src/repro/core/x.py"))
        sites = doc["functions"][1]["sites"]
        flags = {s["path"]: s.get("strcodec", False) for s in sites}
        assert flags["raw.decode"] is True
        assert flags["col.decode"] is False


# ----- call-graph construction -----------------------------------------


class TestCallGraphShapes:
    def test_cross_module_call_through_import(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "src/repro/core/helpers.py": "def expand(col):\n    return col\n",
                "src/repro/core/main.py": (
                    "from .helpers import expand\n"
                    "def run(col):\n    return expand(col)\n"
                ),
            },
        )
        assert (
            node(graph, "main.<module>.run"),
            node(graph, "helpers.<module>.expand"),
        ) in edge_set(graph)

    def test_decorated_function_keeps_node_and_decorator_edge(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "src/repro/core/x.py": (
                    "def wraps(fn):\n"
                    "    return fn\n"
                    "@wraps\n"
                    "def work():\n"
                    "    return inner()\n"
                    "def inner():\n"
                    "    return 1\n"
                )
            },
        )
        edges = edge_set(graph)
        work = node(graph, ".work")
        kinds = {
            (e.caller, e.callee): e.kind
            for e in graph.edges
        }
        assert kinds[(work, node(graph, ".wraps"))] == "decorator"
        assert (work, node(graph, ".inner")) in edges

    def test_functools_partial_target_is_a_partial_edge(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "src/repro/core/x.py": (
                    "from functools import partial\n"
                    "def handler(a, b):\n"
                    "    return a + b\n"
                    "def bind():\n"
                    "    return partial(handler, 1)\n"
                )
            },
        )
        match = [
            e
            for e in graph.edges
            if e.caller == node(graph, ".bind")
            and e.callee == node(graph, ".handler")
            and e.kind == "partial"
        ]
        assert match, [e.to_doc() for e in graph.edges]

    def test_codec_abc_method_dispatch(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "src/repro/compression/base.py": (
                    "class Codec:\n"
                    "    def decode(self, codes):\n"
                    "        raise NotImplementedError\n"
                ),
                "src/repro/compression/rle.py": (
                    "from .base import Codec\n"
                    "class RLECodec(Codec):\n"
                    "    def decode(self, codes):\n"
                    "        return codes\n"
                ),
                "src/repro/core/use.py": (
                    "from ..compression.base import Codec\n"
                    "def materialize(codec: Codec, codes):\n"
                    "    return codec.decode(codes)\n"
                ),
            },
        )
        caller = node(graph, "use.<module>.materialize")
        callees = {e.callee for e in graph.callees(caller)}
        # annotated-receiver dispatch reaches the ABC method AND the
        # project override (virtual dispatch, not just static)
        assert node(graph, "base.<module>.Codec.decode") in callees
        assert node(graph, "rle.<module>.RLECodec.decode") in callees

    def test_self_method_resolves_through_hierarchy(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "src/repro/core/x.py": (
                    "class Base:\n"
                    "    def shared(self):\n"
                    "        return 1\n"
                    "class Child(Base):\n"
                    "    def run(self):\n"
                    "        return self.shared()\n"
                )
            },
        )
        assert (
            node(graph, ".Child.run"),
            node(graph, ".Base.shared"),
        ) in edge_set(graph)

    def test_typed_self_attribute_receiver(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "src/repro/core/cachemod.py": (
                    "class DecodeCache:\n"
                    "    def decompress(self, col):\n"
                    "        return col\n"
                ),
                "src/repro/core/srv.py": (
                    "from .cachemod import DecodeCache\n"
                    "class Server:\n"
                    "    def __init__(self):\n"
                    "        self.cache = DecodeCache()\n"
                    "    def process(self, col):\n"
                    "        return self.cache.decompress(col)\n"
                ),
            },
        )
        assert (
            node(graph, ".Server.process"),
            node(graph, ".DecodeCache.decompress"),
        ) in edge_set(graph)

    def test_lambda_in_rules_table_links_helper(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "src/repro/core/rules.py": (
                    "def helper(v):\n"
                    "    return v + 1\n"
                    "RULES = {\n"
                    "    'inc': lambda v: helper(v),\n"
                    "}\n"
                )
            },
        )
        lam = [q for q, n in graph.functions.items() if n.is_lambda]
        assert len(lam) == 1
        # module body references the lambda; the lambda calls the helper
        assert (node(graph, "rules.<module>"), lam[0]) in edge_set(graph)
        assert (lam[0], node(graph, ".helper")) in edge_set(graph)

    def test_importlib_indirection_is_marked_dynamic(self, tmp_path):
        """Known-imprecise edge: dynamic dispatch is flagged, not faked."""
        graph = graph_of(
            tmp_path,
            {
                "src/repro/serve/spec.py": (
                    "import importlib\n"
                    "def query_config(module_name):\n"
                    "    mod = importlib.import_module(module_name)\n"
                    "    return mod.QUERIES\n"
                )
            },
        )
        qc = graph.function(node(graph, ".query_config"))
        assert qc.dynamic is True
        # no fabricated call edges out of the dynamic site
        assert all(
            e.kind in ("ref",) or e.callee != e.caller
            for e in graph.callees(qc.qualname)
        )

    def test_ambient_method_names_skip_cha(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "src/repro/core/x.py": (
                    "class Table:\n"
                    "    def get(self, k):\n"
                    "        return k\n"
                    "def use(d):\n"
                    "    return d.get('x')\n"
                )
            },
        )
        # d.get() must NOT wire into Table.get via CHA: 'get' is ambient
        assert (
            node(graph, ".use"),
            node(graph, ".Table.get"),
        ) not in edge_set(graph)

    def test_unknown_receiver_falls_back_to_cha(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "src/repro/core/x.py": (
                    "class Pipe:\n"
                    "    def advance_cursor(self):\n"
                    "        return 1\n"
                    "def drive(thing):\n"
                    "    return thing.advance_cursor()\n"
                )
            },
        )
        match = [
            e
            for e in graph.edges
            if e.caller == node(graph, ".drive") and e.kind == "cha"
        ]
        assert [e.callee for e in match] == [node(graph, ".Pipe.advance_cursor")]


class TestGraphQueries:
    FILES = {
        "src/repro/core/x.py": (
            "def a():\n"
            "    return b()\n"
            "def b():\n"
            "    return c()\n"
            "def c():\n"
            "    return 1\n"
        )
    }

    def test_reachable_and_witness_path(self, tmp_path):
        graph = graph_of(tmp_path, self.FILES)
        a, b, c = (node(graph, f".{x}") for x in "abc")
        parents = graph.reachable([a])
        assert set(parents) >= {a, b, c}
        assert graph.path_to(parents, c) == [a, b, c]

    def test_sanitizer_cuts_propagation(self, tmp_path):
        graph = graph_of(tmp_path, self.FILES)
        a, b, c = (node(graph, f".{x}") for x in "abc")
        parents = graph.reachable([a], stop={b})
        assert b in parents  # the sanitizer itself is still visible
        assert c not in parents  # but nothing beyond it

    def test_class_descendants(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "src/repro/core/x.py": (
                    "class Root(Exception):\n    pass\n"
                    "class Mid(Root):\n    pass\n"
                    "class Leaf(Mid):\n    pass\n"
                    "class Other(Exception):\n    pass\n"
                )
            },
        )
        root = node_class(graph, ".Root")
        assert graph.subclasses([root]) == {
            node_class(graph, ".Mid"),
            node_class(graph, ".Leaf"),
        }

    def test_class_resolves_through_imports_and_reexports(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "src/repro/core/errs.py": "class Boom(Exception):\n    pass\n",
                "src/repro/core/__init__.py": "from .errs import Boom\n",
                "src/repro/other/errs.py": "class Boom(Exception):\n    pass\n",
                "src/repro/wire/x.py": (
                    "from repro.core import Boom\n"
                    "class Sub(Boom):\n    pass\n"
                ),
            },
        )
        boom = "repro.core.errs.<module>.Boom"
        assert graph.resolve_class("repro.wire.x", "repro.core.Boom") == boom
        assert graph.resolve_class("repro.core.errs", "Boom") == boom
        assert graph.resolve_class("repro.wire.x", "Boom") == boom
        # from a module that names neither, two classes share the leaf
        # name: no guess
        assert graph.resolve_class("repro.placeholder", "Boom") is None
        assert graph.subclasses([boom]) == {"repro.wire.x.<module>.Sub"}


# ----- exports ----------------------------------------------------------


class TestGraphExports:
    def test_json_doc_schema(self, tmp_path):
        graph = graph_of(tmp_path, TestGraphQueries.FILES)
        doc = graph.to_doc()
        assert doc["schema_version"] == GRAPH_SCHEMA_VERSION
        assert json.loads(json.dumps(doc)) == doc
        for key in ("modules", "functions", "classes", "edges", "coverage"):
            assert key in doc
        fn = doc["functions"][0]
        for key in ("qualname", "module", "path", "line", "kind", "dynamic"):
            assert key in fn
        assert doc["coverage"]["ratio"] == 1.0


# ----- dataflow ---------------------------------------------------------


class TestDataflow:
    def test_sink_flow_with_sanitizer(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "src/repro/core/x.py": (
                    "import time\n"
                    "def entry():\n"
                    "    return clean()\n"
                    "def entry2():\n"
                    "    return dirty()\n"
                    "def clean():\n"
                    "    return dirty()\n"
                    "def dirty():\n"
                    "    return time.time()\n"
                )
            },
        )

        def facts(n):
            for site in n.summary["sites"]:
                if site.get("path") == "time.time":
                    yield site["path"], site["line"]

        entry = node(graph, ".entry")
        clean = node(graph, ".clean")
        flows = find_flows(graph, [entry], facts, sanitizers={clean})
        assert flows == []
        flows = find_flows(graph, [node(graph, ".entry2")], facts)
        assert len(flows) == 1
        assert flows[0].detail == "time.time"
        assert flows[0].path[-1] == node(graph, ".dirty")

    def test_attribute_closure_markers_and_detached(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "src/repro/serve/x.py": (
                    "import threading\n"
                    "class Inner:\n"
                    "    def __init__(self, stream):\n"
                    "        self.hook = lambda: 1\n"
                    "        self.lock = threading.Lock()\n"
                    "class Root:\n"
                    "    def __init__(self):\n"
                    "        self.inner = Inner(None)\n"
                    "        self.skipped = iter(())\n"
                )
            },
        )
        found = attribute_closure(
            graph,
            "Root",
            detached={("Root", "skipped")},
            unpicklable_type_roots=("threading.",),
        )
        problems = {(f.attr_path, f.problem) for f in found}
        assert ("inner.hook", "lambda") in problems
        assert ("inner.lock", "unpicklable:threading") in problems
        assert not any(f.attr_path == "skipped" for f in found)


# ----- the real repository ----------------------------------------------


class TestRepositoryGraph:
    def test_coverage_floor(self):
        graph = build_callgraph(load_project(default_root(REPO_ROOT)))
        cov = graph.coverage()
        assert cov["functions_defined"] > 500
        # the --graph acceptance bar: >= 95% of src/repro definitions
        assert cov["ratio"] >= 0.95, cov

    def test_one_function_sequences_compress_link_process(self):
        """The batch path lives in ``Pipeline.step`` and nowhere else.

        The engine loop and the tenant session both loop over it; a
        second sequencing of compress -> link -> query (as
        ``TenantSession.step`` once was) fails here, whatever layer it
        is in.
        """
        graph = build_callgraph(load_project(default_root(REPO_ROOT)))
        step = "repro.core.pipeline.<module>.Pipeline.step"
        allowed = {
            "repro.core.client.<module>.Client.compress_batch": {
                step,
                # the standalone wire encoder (no link, no server)
                "repro.wire.serializer.<module>.StreamSerializer.serialize",
            },
            "repro.core.server.<module>.Server.process": {
                step,
                # the oracle's reference runner, pinned codecs, no client
                "repro.oracle.differential.<module>.run_path",
            },
            "repro.net.transport.<module>.ReliableTransport.send_batch": {step},
        }
        for callee, expected in allowed.items():
            assert callee in graph.functions, callee
            callers = {
                edge.caller
                for edge in graph.callers(callee)
                if edge.caller.startswith("repro.")
            }
            assert callers == expected, (callee, sorted(callers ^ expected))

    def test_known_dynamic_edge_is_documented_imprecise(self):
        """TenantSpec.query_config dispatches through importlib; the
        graph must mark it dynamic rather than fake a call edge."""
        graph = build_callgraph(load_project(default_root(REPO_ROOT)))
        dynamic = [
            q
            for q, n in graph.functions.items()
            if n.dynamic and "TenantSpec" in q
        ]
        assert dynamic, "TenantSpec importlib indirection lost its marker"
