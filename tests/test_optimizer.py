"""The rule-based optimizer: binder shapes, rules, chooser, execution.

Covers the contract each layer owes the others: the binder emits the
naive tree in SQL evaluation order; every rewrite rule fires on its
target shape and refuses when the cost model prices the rewrite at no
gain; the chooser falls back to the naive plan when rewriting did not
help; and the lowered plans (cascade WHERE, fused aggregates) compute
exactly what the naive plans compute.  End-to-end answer equality over
the full workload grammar is the differential oracle's optimized leg
(``tests/test_oracle.py`` and the optimizer-smoke CI job); these tests
pin the mechanisms.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import repro.optimizer
import repro.sql
from repro import CompressStreamDB, EngineConfig
from repro.datasets import QUERIES
from repro.optimizer import (
    RULES,
    CommonSubplanSharing,
    CostContext,
    DeriveNode,
    FilterAggFusion,
    FilterNode,
    JoinNode,
    OrderLimitNode,
    PredicatePushdown,
    ProjectionPrune,
    ProjectNode,
    RewriteRule,
    ScanNode,
    SelectionReorder,
    WindowAggNode,
    optimize_plan,
    plan_digest,
    plan_for_engine,
    render_text,
    schema_infos,
    simplify_predicate,
    stats_from_columns,
)
from repro.optimizer.cost import run_length_of, selectivity, touch_weight
from repro.sql.logical import iter_nodes
from repro.sql.parser import parse
from repro.sql.planner import LiteralPredicate, Planner, PredicateGroup
from repro.stream.schema import Field, Schema
from repro.stream.source import GeneratorSource
from repro.workloads.corpus import QUERIES as CORPUS

SCHEMA = Schema(
    [
        Field("ts", "int", 8),
        Field("value", "int", 4),
        Field("kind", "int", 2),
        Field("payload", "int", 8),
    ]
)
CATALOG = {"S": SCHEMA}


def plan_of(sql):
    return Planner(CATALOG).plan(parse(sql))


def naive_root(sql, codec_hint="", stats=None):
    return Planner(CATALOG, codec_hint=codec_hint, stats=stats).bind(parse(sql))


def node_types(root):
    return [type(n).__name__ for n in iter_nodes(root)]


def find(root, node_type):
    for node in iter_nodes(root):
        if isinstance(node, node_type):
            return node
    raise AssertionError(f"no {node_type.__name__} in plan")


def runny_source(batches=3, batch_size=2048, run=32, seed=5):
    def make(index):
        rng = np.random.default_rng(seed + index)
        n_runs = batch_size // run + 1
        return {
            "ts": np.arange(batch_size, dtype=np.int64) + index * batch_size,
            "value": np.repeat(
                rng.integers(0, 8, size=n_runs) * 10, run
            )[:batch_size],
            "kind": rng.integers(0, 4, size=batch_size),
            "payload": rng.integers(0, 1 << 30, size=batch_size),
        }

    return GeneratorSource(SCHEMA, make, limit=batches)


# ----- binder shapes ----------------------------------------------------


class TestBinder:
    def test_window_agg_shape(self):
        root = naive_root(
            "select avg(value) as a from S [range 64 slide 64] "
            "where value < 50"
        )
        assert node_types(root) == [
            "ProjectNode",
            "WindowAggNode",
            "FilterNode",
            "ScanNode",
        ]
        scan = find(root, ScanNode)
        assert scan.columns == ("ts", "value", "kind", "payload")
        assert scan.predicate is None  # naive: WHERE stays above the scan
        assert find(root, WindowAggNode).aggregates == (("avg", "value"),)

    def test_order_limit_rides_on_top(self):
        root = naive_root(
            "select kind, sum(value) as s from S [range 64 slide 64] "
            "group by kind order by s desc limit 3"
        )
        assert isinstance(root, OrderLimitNode)
        assert root.keys == (("s", True),)
        assert root.limit == 3

    def test_passthrough_shape(self):
        root = naive_root("select value from S [range unbounded] where value == 10")
        assert node_types(root) == ["ProjectNode", "FilterNode", "ScanNode"]

    def test_join_shape_wraps_shared_derived(self):
        from repro.datasets import QUERIES

        q3 = QUERIES["q3"]
        root = Planner(q3.catalog).bind(parse(q3.text()))
        derive = find(root, DeriveNode)
        assert derive.name == "SegSpeedStr"
        assert derive.consumers == 2
        assert not derive.shared  # naive plan: sharing is cse's rewrite
        assert find(root, JoinNode)

    def test_referenced_set_comes_from_the_profile(self):
        root = naive_root("select avg(value) as a from S [range 64 slide 64]")
        assert find(root, ScanNode).referenced == ("value",)


# ----- the cost model ---------------------------------------------------


class TestCostModel:
    def test_run_length_needs_evidence(self):
        plan = plan_of("select value from S [range unbounded]")
        no_hint = schema_infos(plan.schema)["value"]
        hinted = schema_infos(plan.schema, codec_hint="rle")["value"]
        assert run_length_of(no_hint) == 1.0
        assert run_length_of(hinted) > 1.0

    def test_stats_sharpen_run_length_and_touch_weight(self):
        plan = plan_of("select value from S [range unbounded]")
        stats = stats_from_columns(
            plan.schema, {"value": np.repeat(np.arange(8), 64)}
        )
        infos = schema_infos(plan.schema, codec_hint="rle", stats=stats)
        ctx = CostContext(infos=infos)
        assert run_length_of(infos["value"]) == pytest.approx(64.0)
        assert touch_weight(infos["value"], ctx) == pytest.approx(4 / 64.0)

    def test_equality_selectivity_uses_distinct_count(self):
        plan = plan_of("select value from S [range unbounded]")
        stats = stats_from_columns(
            plan.schema, {"value": np.arange(100, dtype=np.int64)}
        )
        info = schema_infos(plan.schema, stats=stats)["value"]
        pred = LiteralPredicate(column="value", op="==", literal=7)
        assert selectivity(pred, info) == pytest.approx(0.01)

    def test_cascade_prices_below_unordered(self):
        from repro.optimizer.cost import predicate_cost

        group = PredicateGroup(
            op="and",
            children=(
                LiteralPredicate(column="value", op="<", literal=10),
                LiteralPredicate(column="kind", op="==", literal=1),
            ),
        )
        ctx = CostContext(infos=schema_infos(SCHEMA))
        flat_cost, flat_sel = predicate_cost(group, 4096.0, ctx)
        ordered = PredicateGroup(
            op="and", children=group.children, ordered=True
        )
        cascade_cost, cascade_sel = predicate_cost(ordered, 4096.0, ctx)
        assert cascade_cost < flat_cost
        assert cascade_sel == pytest.approx(flat_sel)


# ----- the rule catalogue ----------------------------------------------


class TestRules:
    def test_static_table_lists_every_rule(self):
        """An unregistered rule never runs: every RewriteRule subclass
        the optimizer package defines is in RULES, once."""
        for info in pkgutil.iter_modules(repro.optimizer.__path__):
            importlib.import_module(f"repro.optimizer.{info.name}")
        defined, frontier = set(), [RewriteRule]
        while frontier:
            for sub in frontier.pop().__subclasses__():
                frontier.append(sub)
                if sub.__module__.startswith("repro.optimizer."):
                    defined.add(sub)
        registered = [type(r) for r in RULES]
        assert len(set(registered)) == len(registered)
        assert set(registered) == defined

    def _ctx(self, root, codec_hint=""):
        scan = find(root, ScanNode)
        return CostContext(infos={i.name: i for i in scan.infos})

    def test_prune_fires_on_unreferenced_columns(self):
        root = naive_root("select avg(value) as a from S [range 64 slide 64]")
        pruned, firings = ProjectionPrune().apply(root, self._ctx(root))
        assert [f.rule for f in firings] == ["prune"]
        assert find(pruned, ScanNode).columns == ("value",)

    def test_prune_refuses_when_scan_is_minimal(self):
        root = naive_root(
            "select ts, value, kind, payload from S [range unbounded]"
        )
        same, firings = ProjectionPrune().apply(root, self._ctx(root))
        assert same is root and firings == ()

    def test_pushdown_fires_and_consumes_the_filter(self):
        root = naive_root("select value from S [range unbounded] where value < 10")
        pushed, firings = PredicatePushdown().apply(root, self._ctx(root))
        assert [f.rule for f in firings] == ["pushdown"]
        assert find(pushed, ScanNode).predicate is not None
        assert "FilterNode" not in node_types(pushed)

    def test_pushdown_refuses_without_a_filter(self):
        root = naive_root("select value from S [range unbounded]")
        same, firings = PredicatePushdown().apply(root, self._ctx(root))
        assert same is root and firings == ()

    def test_reorder_puts_the_selective_conjunct_first(self):
        sql = (
            "select value from S [range unbounded] where value < 90 and kind == 2"
        )
        stats = stats_from_columns(
            SCHEMA,
            {
                # value < 90 keeps ~90% of rows; kind == 2 keeps ~0.1%
                "value": np.arange(100, dtype=np.int64),
                "kind": np.arange(1000, dtype=np.int64),
            },
        )
        root = naive_root(sql, stats=stats)
        ordered, firings = SelectionReorder().apply(root, self._ctx(root))
        assert [f.rule for f in firings] == ["reorder"]
        predicate = find(ordered, FilterNode).predicate
        assert predicate.ordered
        assert predicate.children[0].column == "kind"

    def test_reorder_refuses_when_cost_says_it_loses(self):
        # both conjuncts keep every row, so the cascade saves nothing
        # and the framework's strict-improvement gate rejects it
        sql = (
            "select value from S [range unbounded] where value <= 99 and kind <= 999"
        )
        stats = stats_from_columns(
            SCHEMA,
            {
                "value": np.arange(100, dtype=np.int64),
                "kind": np.arange(1000, dtype=np.int64),
            },
        )
        root = naive_root(sql, stats=stats)
        same, firings = SelectionReorder().apply(root, self._ctx(root))
        assert same is root and firings == ()

    def test_fusion_fires_with_run_evidence(self):
        root = naive_root(
            "select avg(value) as a from S [range 64 slide 64] "
            "where value < 50",
            codec_hint="rle",
        )
        ctx = CostContext(
            infos={i.name: i for i in find(root, ScanNode).infos}
        )
        fused, firings = FilterAggFusion().apply(root, ctx)
        assert [f.rule for f in firings] == ["fusion"]
        assert find(fused, WindowAggNode).fuse_column == "value"

    def test_fusion_refuses_without_run_evidence(self):
        # identical query, no codec hint and no statistics: the run
        # length defaults to 1.0 and fusing cannot win
        root = naive_root(
            "select avg(value) as a from S [range 64 slide 64] "
            "where value < 50"
        )
        same, firings = FilterAggFusion().apply(root, self._ctx(root))
        assert same is root and firings == ()

    def test_fusion_refuses_grouped_aggregates(self):
        root = naive_root(
            "select kind, avg(value) as a from S [range 64 slide 64] "
            "where value < 50 group by kind",
            codec_hint="rle",
        )
        ctx = CostContext(
            infos={i.name: i for i in find(root, ScanNode).infos}
        )
        same, firings = FilterAggFusion().apply(root, ctx)
        assert same is root and firings == ()

    def test_fusion_refuses_multi_column_predicates(self):
        root = naive_root(
            "select avg(value) as a from S [range 64 slide 64] "
            "where value < 50 and kind == 1",
            codec_hint="rle",
        )
        ctx = CostContext(
            infos={i.name: i for i in find(root, ScanNode).infos}
        )
        same, firings = FilterAggFusion().apply(root, ctx)
        assert same is root and firings == ()

    def test_cse_shares_a_multiply_consumed_derived_stream(self):
        from repro.datasets import QUERIES

        q3 = QUERIES["q3"]
        root = Planner(q3.catalog).bind(parse(q3.text()))
        shared, firings = CommonSubplanSharing().apply(root, self._ctx(root))
        assert "cse" in [f.rule for f in firings]
        assert find(shared, DeriveNode).shared

    def test_cse_refuses_single_consumer_derived_streams(self):
        scan = ScanNode(stream="S", columns=("value",), infos=())
        root = ProjectNode(
            child=DeriveNode(
                name="D",
                child=ProjectNode(child=scan, outputs=("value",)),
                consumers=1,
            ),
            outputs=("value",),
        )
        same, firings = CommonSubplanSharing().apply(root, CostContext())
        assert same is root and firings == ()

    def test_framework_gate_rejects_a_losing_rewrite(self):
        class Widen(RewriteRule):
            """Deliberately bad: duplicate every aggregate's work."""

            name = "widen"

            def rewrite(self, root, ctx):
                import dataclasses

                from repro.sql.plan import RuleFiring

                def visit(node):
                    if isinstance(node, ScanNode):
                        return dataclasses.replace(
                            node, columns=node.columns + node.columns
                        )
                    return node

                from repro.sql.logical import transform

                return transform(root, visit), (
                    RuleFiring(rule="widen", detail="doubled the scan"),
                )

        root = naive_root("select avg(value) as a from S [range 64 slide 64]")
        same, firings = Widen().apply(root, self._ctx(root))
        assert same is root and firings == ()


# ----- predicate simplification ----------------------------------------


def lit(column, op, literal):
    return LiteralPredicate(column=column, op=op, literal=literal)


class TestSimplifyPredicate:
    def test_dedup(self):
        a = lit("value", "<", 10)
        node, notes = simplify_predicate(
            PredicateGroup(op="and", children=(a, a))
        )
        assert node == a
        assert any(n.startswith("dedup") for n in notes)

    def test_absorption(self):
        a = lit("value", "<", 10)
        b = lit("kind", "==", 1)
        node, notes = simplify_predicate(
            PredicateGroup(
                op="or",
                children=(a, PredicateGroup(op="and", children=(a, b))),
            )
        )
        assert node == a
        assert any(n.startswith("absorb") for n in notes)

    def test_or_of_ands_factors_the_common_conjunct(self):
        a = lit("value", "<", 10)
        b = lit("kind", "==", 1)
        c = lit("kind", "==", 2)
        node, notes = simplify_predicate(
            PredicateGroup(
                op="or",
                children=(
                    PredicateGroup(op="and", children=(a, b)),
                    PredicateGroup(op="and", children=(a, c)),
                ),
            )
        )
        assert any(n.startswith("factor") for n in notes)
        assert isinstance(node, PredicateGroup) and node.op == "and"
        assert node.children[0] == a
        assert node.children[1] == PredicateGroup(op="or", children=(b, c))

    def test_no_identity_no_rewrite(self):
        group = PredicateGroup(
            op="and",
            children=(lit("value", "<", 10), lit("kind", "==", 1)),
        )
        node, notes = simplify_predicate(group)
        assert node is group and notes == ()


# ----- the driver: chooser, digest, lowering ---------------------------


class TestOptimizePlan:
    def test_chooser_falls_back_when_nothing_fires(self):
        # every column referenced, no WHERE, grouped: no rule applies
        sql = (
            "select ts, kind, payload, avg(value) as a "
            "from S [range 64 slide 64] group by ts, kind, payload"
        )
        result = optimize_plan(naive_root(sql))
        assert result.info.fallback
        assert result.info.rules_fired == ()
        assert result.info.estimated_cost == result.info.baseline_cost
        assert result.root is result.baseline_root

    def test_rules_fire_and_estimate_beats_baseline(self):
        sql = (
            "select avg(value) as a from S [range 64 slide 64] "
            "where value < 50"
        )
        result = optimize_plan(naive_root(sql, codec_hint="rle"))
        assert not result.info.fallback
        assert {"prune", "pushdown", "fusion"} <= set(result.info.rules_fired)
        assert result.info.estimated_cost < result.info.baseline_cost
        assert result.plan.fuse_column == "value"
        assert result.plan.opt is result.info

    def test_digest_is_stable_and_stats_blind(self):
        sql = "select value from S [range unbounded] where value < 10"
        a = optimize_plan(naive_root(sql))
        stats = stats_from_columns(
            SCHEMA, {"value": np.arange(100, dtype=np.int64)}
        )
        b = optimize_plan(naive_root(sql, stats=stats))
        assert a.info.plan_digest == b.info.plan_digest
        assert plan_digest(a.root) == a.info.plan_digest
        # the naive tree has a different shape, hence a different digest
        assert plan_digest(a.baseline_root) != a.info.plan_digest

    def test_lowered_where_keeps_the_cascade_order(self):
        sql = (
            "select value from S [range unbounded] where value < 90 and kind == 2"
        )
        stats = stats_from_columns(
            SCHEMA,
            {
                "value": np.arange(100, dtype=np.int64),
                "kind": np.arange(1000, dtype=np.int64),
            },
        )
        result = optimize_plan(naive_root(sql, stats=stats))
        assert result.plan.where.ordered
        assert result.plan.where.children[0].column == "kind"


# ----- the one-way front end: parse -> bind -> RULES -> lower ----------


#: (catalog, sql) of the paper's Q1-Q6 at their default windows plus the
#: workload corpus (tumbling Q1-Q6 and the widened-surface queries)
FRONT_END_QUERIES = {
    **{f"paper_{name}": (q.catalog, q.text()) for name, q in QUERIES.items()},
    **{name: (e.catalog, e.sql) for name, e in CORPUS.items()},
}

#: the only plan fields the rule stage may change
REWRITTEN_FIELDS = {"where", "fuse_column", "derived", "opt"}


class TestOneWayFrontEnd:
    @pytest.mark.parametrize("codec_hint", ["", "rle"])
    @pytest.mark.parametrize("name", sorted(FRONT_END_QUERIES))
    def test_zero_rule_lowering_is_the_naive_plan(self, name, codec_hint):
        catalog, sql = FRONT_END_QUERIES[name]
        naive = Planner(catalog).plan_text(sql)
        zero = plan_for_engine(catalog, sql, optimize=False, codec_hint=codec_hint)
        assert zero.plan == naive and naive.opt is None
        assert zero.info is None and zero.root is zero.baseline_root
        # the rule stage reaches the plan through four fields and no other
        optimized = plan_for_engine(catalog, sql, codec_hint=codec_hint).plan
        assert type(optimized) is type(naive) and optimized.opt is not None
        for f in dataclasses.fields(naive):
            if f.name not in REWRITTEN_FIELDS:
                assert getattr(optimized, f.name) == getattr(naive, f.name), f.name
        if getattr(naive, "derived", None) is not None:
            same_where = dataclasses.replace(
                optimized.derived, where=naive.derived.where
            )
            assert same_where == naive.derived

    @pytest.mark.parametrize("optimize", [True, False])
    def test_engine_parses_and_binds_exactly_once(self, monkeypatch, optimize):
        import repro.optimizer.optimizer as driver
        import repro.sql.planner as planner

        calls = Counter()
        real_parse, real_bind = driver.parse, Planner.bind

        def counted_parse(text):
            calls["parse"] += 1
            return real_parse(text)

        def counted_bind(self, script):
            calls["bind"] += 1
            return real_bind(self, script)

        monkeypatch.setattr(driver, "parse", counted_parse)
        monkeypatch.setattr(planner, "parse", counted_parse)
        monkeypatch.setattr(Planner, "bind", counted_bind)
        CompressStreamDB(CATALOG, FILTERED_AVG, EngineConfig(optimize=optimize))
        assert calls == {"parse": 1, "bind": 1}

    def test_sql_never_imports_the_optimizer(self):
        # one direction of data flow: the optimizer imports the front
        # end, never the reverse — not at module level, not inside a
        # function, not under TYPE_CHECKING, not through importlib
        offenders = []
        for path in sorted(Path(repro.sql.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                targets = []
                if isinstance(node, ast.Import):
                    targets = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    base = "repro.sql".rsplit(".", node.level - 1)[0]
                    parts = (base if node.level else "", node.module)
                    module = ".".join(part for part in parts if part)
                    targets = [module] + [f"{module}.{a.name}" for a in node.names]
                elif isinstance(node, ast.Call):
                    func = node.func
                    name = getattr(func, "attr", getattr(func, "id", ""))
                    if name in ("import_module", "__import__"):
                        targets = ["repro.optimizer"]
                offenders += [
                    f"{path.name}:{node.lineno}: {target}"
                    for target in targets
                    if (target + ".").startswith("repro.optimizer.")
                ]
        assert offenders == []

    def test_q3_digest_and_explain_agree_on_every_route(self, capsys):
        # the derived stream's real name and consumer count reach the
        # DeriveNode on every route (no route guesses "derived"/2)
        from repro.cli import main
        from repro.oracle.generator import OracleCase
        from repro.sql import plan_query

        q3 = QUERIES["q3"]
        planned = plan_for_engine(q3.catalog, q3.text())
        explained = render_text(planned.root, planned.info)
        assert "consumers=2; name=SegSpeedStr; shared=True" in explained
        engine = CompressStreamDB(q3.catalog, q3.text())
        assert engine.plan.opt == planned.info  # digest, firings, costs
        assert main(["explain", "--query", "q3"]) == 0
        assert explained in capsys.readouterr().out
        naive = plan_for_engine(q3.catalog, q3.text(), optimize=False)
        assert plan_query(q3.text(), q3.catalog) == naive.plan
        # the oracle plans AST-built scripts through the same entry point
        script = parse(q3.text())
        catalog = {"SegSpeedStr": planned.plan.join_schema}
        case = OracleCase(
            case_id=0,
            seed=0,
            schema=planned.plan.join_schema,
            query=script.main,
            stream="SegSpeedStr",
        )
        by_text = plan_for_engine(catalog, case.sql)
        assert case.optimized_plan().opt == by_text.info
        assert case.plan() == plan_for_engine(catalog, case.sql, optimize=False).plan


# ----- lowered plans execute identically -------------------------------


FILTERED_AVG = (
    "select avg(value) as a from S [range 256 slide 256] where value < 50"
)
CASCADE_SQL = (
    "select ts, value from S [range unbounded] where value < 50 and kind == 2 and ts >= 0"
)


def run_engine(sql, optimize, mode="static:rle"):
    engine = CompressStreamDB(
        CATALOG,
        sql,
        EngineConfig(mode=mode, bandwidth_mbps=None, optimize=optimize),
    )
    report = engine.run(runny_source(), collect_outputs=True)
    return engine, report


class TestExecutionEquivalence:
    @pytest.mark.parametrize("sql", [FILTERED_AVG, CASCADE_SQL])
    def test_optimized_matches_naive(self, sql):
        _, naive = run_engine(sql, optimize=False)
        engine, opt = run_engine(sql, optimize=True)
        info = engine._base_plan.opt
        assert info is not None and not info.fallback
        a, b = naive.outputs, opt.outputs
        assert a.n_rows == b.n_rows
        assert sorted(a.columns) == sorted(b.columns)
        for name in a.columns:
            assert np.allclose(a.columns[name], b.columns[name]), name

    def test_fused_plan_actually_fuses(self):
        engine, _ = run_engine(FILTERED_AVG, optimize=True)
        assert engine._base_plan.fuse_column == "value"
        assert "fusion" in engine._base_plan.opt.rules_fired

    def test_escape_hatch_keeps_the_naive_plan(self):
        engine, _ = run_engine(FILTERED_AVG, optimize=False)
        assert engine._base_plan.opt is None
        assert engine._base_plan.fuse_column == ""

    def test_server_report_surfaces_the_decision(self):
        from repro.core.server import Server
        from repro.oracle.differential import compress_case_batch
        from repro.stream.batch import Batch

        plan = CompressStreamDB(
            CATALOG, FILTERED_AVG, EngineConfig(mode="static:rle")
        )._base_plan
        server = Server(plan)
        batch = next(iter(runny_source(batches=1, batch_size=512)))
        assert isinstance(batch, Batch)
        report = server.process(compress_case_batch(batch, "rle"))
        assert "fusion" in report.optimizer_rules
        assert report.plan_digest == plan.opt.plan_digest
        assert report.estimated_cost < report.baseline_cost
