"""Unit tests for core internals: profiler, metrics, pipeline helpers."""

import numpy as np
import pytest

from repro.core.engine import CompressStreamDB
from repro.core.metrics import RunReport
from repro.core.pipeline import measure_query_profile, name_is_eager
from repro.core.profiler import STAGES, BatchTiming, Profiler
from repro.sql import plan_query
from repro.stream import Batch, Field, Schema

SCHEMA = Schema([Field("ts"), Field("k", "int", 4), Field("v", "int", 4)])
CATALOG = {"S": SCHEMA}


class TestBatchTiming:
    def test_total(self):
        t = BatchTiming(wait=1, compress=2, trans=3, decompress=4, query=5)
        assert t.total == 15

    def test_defaults_zero(self):
        assert BatchTiming().total == 0.0


class TestProfiler:
    def _record(self, profiler, query=1.0, trans=2.0, tuples=10, sent=100, raw=200):
        profiler.record_batch(
            BatchTiming(query=query, trans=trans),
            tuples=tuples,
            bytes_sent=sent,
            bytes_uncompressed=raw,
        )

    def test_accumulation(self):
        p = Profiler()
        self._record(p)
        self._record(p)
        assert p.batches == 2
        assert p.tuples == 20
        assert p.bytes_sent == 200
        assert p.seconds["query"] == 2.0
        assert p.total_seconds == 6.0
        assert len(p.per_batch) == 2

    def test_breakdown_sums_to_one(self):
        p = Profiler()
        self._record(p)
        assert sum(p.breakdown().values()) == pytest.approx(1.0)

    def test_breakdown_empty_run(self):
        assert all(v == 0.0 for v in Profiler().breakdown().values())

    def test_merge(self):
        a, b = Profiler(), Profiler()
        self._record(a)
        self._record(b, query=3.0)
        merged = a.merge(b)
        assert merged.batches == 2
        assert merged.seconds["query"] == 4.0
        # originals untouched
        assert a.batches == 1

    def test_stage_names_stable(self):
        assert STAGES == ("wait", "compress", "trans", "decompress", "query")


class TestRunReport:
    def test_zero_run_metrics(self):
        rep = RunReport(profiler=Profiler())
        assert rep.throughput == 0.0
        assert rep.avg_latency == 0.0
        assert rep.compression_ratio == float("inf")
        assert rep.space_saving == 0.0

    def test_summary_contains_key_numbers(self):
        p = Profiler()
        p.record_batch(
            BatchTiming(query=0.5), tuples=100, bytes_sent=50, bytes_uncompressed=100
        )
        rep = RunReport(profiler=p)
        s = rep.summary()
        assert "tuples=100" in s
        assert "50.0%" in s  # space saving

    def test_ratio_math(self):
        p = Profiler()
        p.record_batch(
            BatchTiming(query=1.0), tuples=10, bytes_sent=25, bytes_uncompressed=100
        )
        rep = RunReport(profiler=p)
        assert rep.compression_ratio == 4.0
        assert rep.space_saving == 0.75
        assert rep.throughput == 10.0
        assert rep.avg_latency == 1.0


class TestMeasureQueryProfile:
    def test_fills_profile_without_consuming_executor_state(self):
        plan = plan_query(
            "select k, avg(v) as m from S [range 8 slide 8] group by k", CATALOG
        )
        batch = Batch.from_values(
            SCHEMA,
            {"ts": np.arange(64), "k": np.arange(64) % 4, "v": np.arange(64)},
        )
        assert plan.profile.mem_seconds == 0.0
        measure_query_profile(plan, batch, memory_fraction=0.6)
        assert plan.profile.mem_seconds > 0.0
        assert plan.profile.op_seconds > 0.0
        ratio = plan.profile.mem_seconds / (
            plan.profile.mem_seconds + plan.profile.op_seconds
        )
        assert ratio == pytest.approx(0.6, rel=1e-6)


class TestPipelineProfile:
    def test_run_measures_its_own_copy_not_the_engine_plan(self):
        engine = CompressStreamDB(
            CATALOG, "select k, avg(v) as m from S [range 8 slide 8] group by k"
        )
        batch = Batch.from_values(
            SCHEMA,
            {"ts": np.arange(64), "k": np.arange(64) % 4, "v": np.arange(64)},
        )
        earlier = engine.make_pipeline()
        engine.run([batch, batch])
        # neither the engine's plan nor a pipeline made before the run
        # prices with that run's stopwatch
        assert engine.plan.profile.mem_seconds == 0.0
        assert earlier.client.profile.mem_seconds == 0.0
        pipeline = engine.make_pipeline()
        pipeline.run([batch, batch])
        assert pipeline.client.profile is pipeline.plan.profile
        assert pipeline.client.profile.mem_seconds > 0.0
        assert engine.plan.profile.mem_seconds == 0.0


class TestNameIsEager:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("ns", True),
            ("eg", True),
            ("identity", True),
            ("bd", False),
            ("rle", False),
            ("deltachain", False),
        ],
    )
    def test_classification(self, name, expected):
        assert name_is_eager(name) == expected
