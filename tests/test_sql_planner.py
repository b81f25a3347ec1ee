"""Unit tests for the planner: binding, requirements, plan shapes."""

import pytest

from repro.compression.base import CAP_AFFINE, CAP_EQUALITY, CAP_ORDER
from repro.compression import get_codec
from repro.datasets import QUERIES, QUERY_TEXT
from repro.errors import PlanningError
from repro.sql import JoinPlan, PassthroughPlan, Planner, WindowAggPlan, plan_query
from repro.sql.planner import OUT_AGG, OUT_EXPR, OUT_KEY, OUT_LAST
from repro.stream import Field, Schema

SCHEMA = Schema(
    [
        Field("ts", "int", 8),
        Field("k", "int", 4),
        Field("v", "float", 4, decimals=2),
        Field("pos", "int", 4),
    ]
)
CATALOG = {"S": SCHEMA}


class TestWindowAggPlanning:
    def test_shapes_and_kinds(self):
        plan = plan_query(
            "select ts, k, avg(v) as m from S [range 8] group by k", CATALOG
        )
        assert isinstance(plan, WindowAggPlan)
        kinds = [o.kind for o in plan.outputs]
        assert kinds == [OUT_LAST, OUT_KEY, OUT_AGG]
        assert plan.group_keys == ("k",)
        assert plan.window.size == 8

    def test_capability_requirements(self):
        plan = plan_query(
            "select k, avg(v), max(pos) from S [range 8] where ts > 5 group by k",
            CATALOG,
        )
        uses = plan.profile.column_uses
        assert CAP_EQUALITY in uses["k"].caps
        assert CAP_AFFINE in uses["v"].caps
        assert CAP_ORDER in uses["pos"].caps
        assert CAP_ORDER in uses["ts"].caps  # range predicate

    def test_float_literal_quantized(self):
        plan = plan_query("select avg(v) from S [range 8] where v >= 1.25", CATALOG)
        assert plan.where.literal == 125

    def test_unrepresentable_literal_rejected(self):
        with pytest.raises(PlanningError):
            plan_query("select avg(v) from S [range 8] where v == 1.234", CATALOG)

    def test_flipped_literal_predicate(self):
        plan = plan_query("select avg(v) from S [range 8] where 10 < pos", CATALOG)
        pred = plan.where
        assert (pred.column, pred.op, pred.literal) == ("pos", ">", 10)

    def test_or_predicate_tree(self):
        from repro.sql.planner import LiteralPredicate, PredicateGroup

        plan = plan_query(
            "select avg(v) from S [range 8] where k == 1 or k == 2 and pos > 5",
            CATALOG,
        )
        tree = plan.where
        assert isinstance(tree, PredicateGroup) and tree.op == "or"
        assert isinstance(tree.children[0], LiteralPredicate)
        assert isinstance(tree.children[1], PredicateGroup)
        assert tree.children[1].op == "and"

    def test_avg_output_field_is_float(self):
        plan = plan_query("select avg(v) as m from S [range 8]", CATALOG)
        out = plan.outputs[0]
        assert out.out_field.kind == "float"
        assert out.src_decimals == 2

    def test_unknown_column_rejected(self):
        with pytest.raises(PlanningError):
            plan_query("select avg(nope) from S [range 8]", CATALOG)

    def test_unknown_stream_rejected(self):
        with pytest.raises(PlanningError):
            plan_query("select avg(v) from Mystery [range 8]", CATALOG)

    def test_distinct_with_aggregation_rejected(self):
        with pytest.raises(PlanningError):
            plan_query("select distinct avg(v) from S [range 8]", CATALOG)

    def test_pure_projection_needs_unbounded(self):
        with pytest.raises(PlanningError):
            plan_query("select ts, k from S [range 8]", CATALOG)

    def test_expression_rejected_under_window_agg(self):
        with pytest.raises(PlanningError):
            plan_query("select (pos/2) as x, avg(v) from S [range 8]", CATALOG)


class TestPassthroughPlanning:
    def test_projection_plan(self):
        plan = plan_query(
            "select ts, (pos/100) as cell from S [range unbounded]", CATALOG
        )
        assert isinstance(plan, PassthroughPlan)
        assert [o.kind for o in plan.outputs] == ["column", OUT_EXPR]

    def test_non_distinct_projection_needs_values(self):
        plan = plan_query("select ts from S [range unbounded]", CATALOG)
        assert plan.profile.column_uses["ts"].needs_values

    def test_distinct_projection_needs_equality_only(self):
        plan = plan_query("select distinct k from S [range unbounded]", CATALOG)
        use = plan.profile.column_uses["k"]
        assert not use.needs_values
        assert CAP_EQUALITY in use.caps

    def test_expression_on_float_rejected(self):
        with pytest.raises(PlanningError):
            plan_query("select (v/2) as h from S [range unbounded]", CATALOG)

    def test_aggregate_rejected(self):
        with pytest.raises(PlanningError):
            plan_query("select avg(v) from S [range unbounded]", CATALOG)

    def test_group_by_rejected(self):
        with pytest.raises(PlanningError):
            plan_query("select k from S [range unbounded] group by k", CATALOG)


class TestJoinPlanning:
    def test_q3_shape(self):
        q3 = QUERIES["q3"]
        plan = plan_query(QUERY_TEXT["q3"], q3.catalog)
        assert isinstance(plan, JoinPlan)
        assert plan.sides[0].key_column == "vehicle"
        assert plan.window.size == 30
        assert plan.sides[0].window.rows == 1
        assert plan.derived is not None
        assert plan.stream == "PosSpeedStr"  # physical stream
        assert {o.name for o in plan.outputs} >= {"segment", "vehicle"}

    def test_join_without_derived(self):
        plan = plan_query(
            "select L.ts, L.v from S [range 4] as A, "
            "S [partition by k rows 1] as L where A.k == L.k",
            CATALOG,
        )
        assert isinstance(plan, JoinPlan)
        assert plan.derived is None
        assert plan.profile.column_uses["k"].needs_values

    @pytest.mark.parametrize(
        "text",
        [
            # two count windows
            "select L.ts from S [range 4] as A, S [range 4] as L where A.k == L.k",
            # join on a different column than the partition key
            "select L.ts from S [range 4] as A, S [partition by k rows 1] as L "
            "where A.ts == L.ts",
            # non-equality predicate
            "select L.ts from S [range 4] as A, S [partition by k rows 1] as L "
            "where A.k > L.k",
            # different streams -- not supported
            "select L.ts from S [range 4] as A, T [partition by k rows 1] as L "
            "where A.k == L.k",
            # missing predicate
            "select L.ts from S [range 4] as A, S [partition by k rows 1] as L",
        ],
    )
    def test_invalid_join_forms(self, text):
        catalog = dict(CATALOG)
        catalog["T"] = SCHEMA
        with pytest.raises(PlanningError):
            plan_query(text, catalog)

    def test_selecting_window_side_rejected(self):
        with pytest.raises(PlanningError):
            plan_query(
                "select A.ts from S [range 4] as A, S [partition by k rows 1] as L "
                "where A.k == L.k",
                CATALOG,
            )


class TestColumnUse:
    def test_served_directly_rules(self):
        from repro.core.query_profile import ColumnUse

        bd = get_codec("bd")
        ed = get_codec("ed")
        rle = get_codec("rle")
        agg_use = ColumnUse("v", caps=frozenset({CAP_AFFINE}))
        assert agg_use.served_directly_by(bd)
        assert not agg_use.served_directly_by(ed)   # ED is not affine
        assert not agg_use.served_directly_by(rle)  # β = 1
        values_use = ColumnUse("v", needs_values=True)
        assert values_use.served_directly_by(bd)    # affine decodes for free
        assert not values_use.served_directly_by(ed)

    def test_merge_unions(self):
        from repro.core.query_profile import ColumnUse

        a = ColumnUse("v", caps=frozenset({CAP_ORDER}))
        b = ColumnUse("v", caps=frozenset({CAP_EQUALITY}), needs_values=True)
        merged = a.merge(b)
        assert merged.caps == frozenset({CAP_ORDER, CAP_EQUALITY})
        assert merged.needs_values

    def test_merge_rejects_different_columns(self):
        from repro.core.query_profile import ColumnUse

        with pytest.raises(ValueError):
            ColumnUse("a").merge(ColumnUse("b"))


class TestAllPaperQueriesPlan:
    @pytest.mark.parametrize("name", sorted(QUERY_TEXT))
    def test_plans_against_dataset_schemas(self, name):
        q = QUERIES[name]
        plan = Planner(q.catalog).plan_text(QUERY_TEXT[name])
        assert plan.profile.referenced
