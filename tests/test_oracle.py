"""Tests of the differential oracle itself (repro.oracle).

The fast tests here run bounded campaigns so the tier-1 suite stays
quick; the full-size campaigns carry the ``slow`` marker and run in the
``-m slow`` lane (see docs/testing.md).
"""

import dataclasses
import os

import numpy as np
import pytest

from repro.compression.registry import PAPER_POOL
from repro.core.profiler import OPERATOR_KINDS, CoverageMatrix
from repro.oracle import (
    CampaignConfig,
    DifferentialConfig,
    WorkloadGenerator,
    load_case,
    replay_file,
    run_campaign,
    run_case,
    save_case,
    shrink_case,
)
from repro.oracle.differential import (
    PATH_DIRECT,
    PATH_ONE_BATCH,
    compare_results,
    compress_case_batch,
)
from repro.sql.executor import QueryResult
from repro.sql.parser import parse
from repro.sql.unparse import to_sql


# ----- generator -------------------------------------------------------


class TestWorkloadGenerator:
    def test_deterministic(self):
        a = WorkloadGenerator(7)
        b = WorkloadGenerator(7)
        for i in range(10):
            ca, cb = a.case(i), b.case(i)
            assert ca.sql == cb.sql
            assert len(ca.batches) == len(cb.batches)
            for ba, bb in zip(ca.batches, cb.batches):
                assert sorted(ba) == sorted(bb)
                for name in ba:
                    np.testing.assert_array_equal(ba[name], bb[name])

    def test_seeds_differ(self):
        sqls = {WorkloadGenerator(seed).case(0).sql for seed in range(8)}
        assert len(sqls) > 1

    def test_every_case_plans_and_unparses_roundtrip(self):
        gen = WorkloadGenerator(5)
        for case in gen.cases(40):
            case.plan()  # raises on an invalid query
            script = parse(case.sql)
            assert script.main == case.query, case.sql

    def test_covers_all_plan_shapes(self):
        from repro.sql.planner import JoinPlan, PassthroughPlan, WindowAggPlan

        shapes = {type(case.plan()) for case in WorkloadGenerator(1).cases(40)}
        assert {WindowAggPlan, PassthroughPlan, JoinPlan} <= shapes

    def test_timestamps_monotone(self):
        for case in WorkloadGenerator(2).cases(10):
            previous = None
            for batch in case.batches:
                ts = batch["ts"]
                assert np.all(np.diff(ts) >= 0)
                if previous is not None:
                    assert ts[0] >= previous
                previous = int(ts[-1])


# ----- differential executor -------------------------------------------


class TestDifferential:
    def test_pinned_codec_with_identity_fallback(self):
        case = WorkloadGenerator(0).case(0)
        cb = compress_case_batch(case.to_batches()[0], "eg")
        assert set(cb.choices.values()) <= {"eg", "identity"}
        cb_base = compress_case_batch(case.to_batches()[0], None)
        assert set(cb_base.choices.values()) == {"identity"}

    def test_compare_results_tolerates_row_order(self):
        a = QueryResult(
            columns={"k": np.array([1, 2]), "v": np.array([0.5, 1.5])},
            n_rows=2,
        )
        b = QueryResult(
            columns={"k": np.array([2, 1]), "v": np.array([1.5 + 1e-12, 0.5])},
            n_rows=2,
        )
        assert compare_results(a, b) is None

    def test_compare_results_detects_value_drift(self):
        a = QueryResult(columns={"v": np.array([1, 2, 3])}, n_rows=3)
        b = QueryResult(columns={"v": np.array([1, 2, 4])}, n_rows=3)
        detail = compare_results(a, b)
        assert detail is not None and "'v'" in detail

    def test_run_case_clean_and_covered(self):
        outcome = run_case(WorkloadGenerator(0).case(1))
        assert outcome.ok, [str(m) for m in outcome.mismatches]
        assert outcome.coverage.cells  # something was recorded

    def test_mutation_is_caught_on_the_mutated_path_only(self):
        def mutate(result, codec, path):
            if path != PATH_DIRECT or not result.columns:
                return result
            name = sorted(result.columns)[0]
            cols = dict(result.columns)
            arr = cols[name].copy()
            if arr.size:
                arr[0] += 1
            cols[name] = arr
            return dataclasses.replace(result, columns=cols)

        config = DifferentialConfig(codecs=("ns",), mutate=mutate)
        # a +1 fault can hide inside the float tolerance on huge sums, so
        # scan until a case shows it; it must then blame only the direct path
        outcomes = [
            run_case(case, config) for case in WorkloadGenerator(0).cases(15)
        ]
        mismatches = [m for o in outcomes for m in o.mismatches]
        assert mismatches
        assert {m.path for m in mismatches} == {PATH_DIRECT}

    def test_one_batch_leg_catches_a_cut_dependent_answer(self, monkeypatch):
        from repro.stream import PartitionWindowState

        # a sampling-window comma join over several batches: every leg but
        # the one-batch run sees the same cuts
        case = WorkloadGenerator(3).case(18)
        assert "slide 5]" in case.sql and len(case.batches) > 1
        config = DifferentialConfig(codecs=("ns",))
        assert run_case(case, config).ok
        # forget the rows the batch buffer drops between windows
        monkeypatch.setattr(PartitionWindowState, "update", lambda self, rows: None)
        mismatches = run_case(case, config).mismatches
        assert {m.path for m in mismatches} == {PATH_ONE_BATCH}


# ----- coverage matrix -------------------------------------------------


class TestCoverageMatrix:
    def test_record_and_kinds(self):
        m = CoverageMatrix()
        m.record("ns", "selection", direct=True)
        m.record("ns", "groupby", direct=False)
        m.record("rle", "selection", direct=False, count=3)
        assert m.kinds_for("ns") == ("selection", "groupby")
        assert m.kinds_for("ns", direct_only=True) == ("selection",)
        assert m.cells["rle"]["selection"].decoded == 3

    def test_undercovered(self):
        m = CoverageMatrix()
        for kind in OPERATOR_KINDS[:3]:
            m.record("ns", kind, direct=True)
        m.record("rle", "selection", direct=False)
        assert m.undercovered(["ns", "rle", "eg"], 3) == {"rle": 1, "eg": 0}

    def test_merge(self):
        a = CoverageMatrix()
        a.record("ns", "selection", direct=True)
        b = CoverageMatrix()
        b.record("ns", "selection", direct=False, count=2)
        b.record("eg", "join", direct=True)
        a.merge(b)
        assert a.cells["ns"]["selection"].direct == 1
        assert a.cells["ns"]["selection"].decoded == 2

    def test_format_table(self):
        m = CoverageMatrix()
        assert "no coverage" in m.format_table()
        m.record("ns", "selection", direct=True)
        assert "ns" in m.format_table()


# ----- repro files -----------------------------------------------------


class TestReplay:
    def test_save_load_roundtrip(self, tmp_path):
        case = WorkloadGenerator(4).case(2)
        path = save_case(
            case, str(tmp_path / "r.json"), codec="ns", mismatch_path="direct"
        )
        loaded, codec, mismatch_path = load_case(path)
        assert (codec, mismatch_path) == ("ns", "direct")
        assert loaded.sql == case.sql
        assert [f.name for f in loaded.schema] == [f.name for f in case.schema]
        for ba, bb in zip(loaded.batches, case.batches):
            for name in bb:
                np.testing.assert_array_equal(ba[name], bb[name])

    def test_replay_clean_case(self, tmp_path):
        case = WorkloadGenerator(4).case(3)
        path = save_case(case, str(tmp_path / "r.json"), codec="bd")
        outcome = replay_file(path)
        assert outcome.ok, [str(m) for m in outcome.mismatches]

    def test_rejects_foreign_files(self, tmp_path):
        from repro.errors import ReproError

        bogus = tmp_path / "x.json"
        bogus.write_text('{"format": "something-else"}')
        with pytest.raises(ReproError):
            load_case(str(bogus))


# ----- shrinker self-test ----------------------------------------------


def _flip_first_value(result, codec, path):
    """Injected comparator-visible fault on the direct path."""
    if path != PATH_DIRECT or not result.columns:
        return result
    name = sorted(result.columns)[0]
    cols = dict(result.columns)
    arr = cols[name].copy()
    if arr.size:
        arr[0] += 1
    cols[name] = arr
    return dataclasses.replace(result, columns=cols)


class TestShrinker:
    def test_injected_fault_minimizes_and_replays(self, tmp_path):
        config = DifferentialConfig(codecs=("ns",), mutate=_flip_first_value)
        gen = WorkloadGenerator(3)
        case = next(
            c for c in gen.cases(30) if run_case(c, config).mismatches
        )
        small = shrink_case(case, "ns", PATH_DIRECT, config)
        assert small.n_rows <= 8
        assert len(small.schema) <= 2
        assert small.n_rows <= case.n_rows
        # the minimized case must still fail, deterministically, via replay
        path = save_case(
            small, str(tmp_path / "r.json"), codec="ns", mismatch_path="direct"
        )
        first = replay_file(path, DifferentialConfig(mutate=_flip_first_value))
        second = replay_file(path, DifferentialConfig(mutate=_flip_first_value))
        assert first.mismatches
        assert [str(m) for m in first.mismatches] == [
            str(m) for m in second.mismatches
        ]
        # ...and without the injected fault the same file replays clean
        assert replay_file(path).ok

    def test_rejects_passing_case(self):
        from repro.errors import ReproError

        case = WorkloadGenerator(0).case(1)
        with pytest.raises(ReproError):
            shrink_case(case, "ns", PATH_DIRECT)


# ----- campaigns -------------------------------------------------------


class TestCampaign:
    def test_smoke_campaign_clean(self, tmp_path):
        config = CampaignConfig(
            cases=25, seed=0, out_dir=str(tmp_path / "repros"), min_kinds=1
        )
        result = run_campaign(config)
        assert result.ok, [str(m) for m in result.mismatches]
        assert result.cases_run == 25
        assert not os.path.exists(config.out_dir)  # no repros for clean runs
        assert not result.coverage.undercovered(PAPER_POOL, 1)

    def test_campaign_writes_shrunk_repro(self, tmp_path):
        config = CampaignConfig(
            cases=30,
            seed=3,
            codecs=("ns",),
            out_dir=str(tmp_path / "repros"),
            max_failures=1,
            mutate=_flip_first_value,
        )
        result = run_campaign(config)
        assert result.mismatches
        assert len(result.repro_paths) == 1
        loaded, codec, path = load_case(result.repro_paths[0])
        assert codec == "ns" and path == PATH_DIRECT
        assert loaded.n_rows <= 8

    @pytest.mark.slow
    def test_full_campaign_500_cases(self, tmp_path):
        config = CampaignConfig(
            cases=500, seed=0, out_dir=str(tmp_path / "repros"), min_kinds=3
        )
        result = run_campaign(config)
        assert result.ok, [str(m) for m in result.mismatches]
        for codec in PAPER_POOL:
            assert len(result.coverage.kinds_for(codec)) >= 3, codec


# ----- unparser --------------------------------------------------------


class TestUnparse:
    def test_roundtrip_on_handwritten_queries(self):
        samples = [
            "select avg(v) as a from S [range 4 slide 2] where k == 1 group by k",
            "select k, count(*) as n from S [range 10 seconds slide 5 on ts] "
            "group by k having n > 2",
            "select distinct k from S [range unbounded]",
            "select v / 2 as half from S [range unbounded] "
            "where v >= 10 and k != 0 or v < -5",
            "select L.x from S [range 5 slide 1] as A, "
            "S [partition by k rows 2] as L where A.k == L.k",
        ]
        for sql in samples:
            script = parse(sql)
            assert parse(to_sql(script)) == script, sql

    def test_or_inside_and_is_rejected(self):
        from repro.errors import PlanningError
        from repro.sql.ast import BoolOp, ColumnRef, Comparison, Literal

        inner = BoolOp(
            "or",
            (
                Comparison("==", ColumnRef("a"), Literal(1)),
                Comparison("==", ColumnRef("b"), Literal(2)),
            ),
        )
        bad = BoolOp("and", (inner, Comparison(">", ColumnRef("c"), Literal(0))))
        from repro.sql.unparse import condition_to_sql

        with pytest.raises(PlanningError):
            condition_to_sql(bad)
