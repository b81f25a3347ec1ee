"""Tests for time-based windows: scheduler semantics, SQL integration,
cross-batch behavior and compressed/baseline equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import get_codec
from repro.errors import PlanningError, SQLSyntaxError
from repro.operators.base import ExecColumn, decoded_column
from repro.sql import QueryResult, make_executor, parse_query, plan_query
from repro.stream import Batch, Field, Schema, TimeWindowScheduler, WindowSpec

SCHEMA = Schema([Field("timestamp"), Field("k", "int", 4), Field("v", "int", 4)])
CATALOG = {"S": SCHEMA}


def assert_extents(layout, starts, ends):
    assert layout.starts.dtype == layout.ends.dtype == np.int64
    np.testing.assert_array_equal(layout.starts, starts)
    np.testing.assert_array_equal(layout.ends, ends)


class TestScheduler:
    def _feed_all(self, spec, ts):
        sched = TimeWindowScheduler(spec)
        return sched.feed(np.asarray(ts, dtype=np.int64))

    def test_tumbling_extents(self):
        layout = self._feed_all(
            WindowSpec.time(10, 10), [0, 1, 9, 10, 11, 19, 25]
        )
        # windows [0,10) and [10,20) closed by ts 25; [20,30) still open
        assert_extents(layout, [0, 3], [3, 6])
        assert layout.retain_start == 6  # ts 25 belongs to the open window

    def test_overlapping_extents(self):
        layout = self._feed_all(WindowSpec.time(10, 5), [0, 4, 7, 12, 22])
        # closed: [0,10) -> idx 0..2, [5,15) -> idx 2..3, [10,20) -> idx 3
        assert_extents(layout, [0, 2, 3], [3, 4, 4])

    def test_empty_windows_skipped(self):
        layout = self._feed_all(WindowSpec.time(5, 5), [0, 1, 27])
        # [0,5) has tuples; [5,10)...[20,25) are empty and emit nothing
        assert_extents(layout, [0], [2])

    def test_cross_batch_continuity(self):
        sched = TimeWindowScheduler(WindowSpec.time(10, 10))
        first = sched.feed(np.array([0, 3, 8]))
        assert_extents(first, [], [])  # window [0,10) still open
        assert first.retain_start == 0
        # next feed receives tail (3 carried) + new tuples
        second = sched.feed(np.array([0, 3, 8, 11, 25]))
        assert second.carry == 3
        assert_extents(second, [0, 3], [3, 4])  # [0,10) and [10,20)

    def test_alignment_to_first_timestamp(self):
        layout = self._feed_all(WindowSpec.time(10, 10), [100, 105, 109, 110, 125])
        # t0 = 100: [100,110) closes with 3 tuples
        assert (layout.starts[0], layout.ends[0]) == (0, 3)

    def test_out_of_order_rejected(self):
        sched = TimeWindowScheduler(WindowSpec.time(10, 10))
        with pytest.raises(PlanningError):
            sched.feed(np.array([5, 3]))

    def test_requires_time_spec(self):
        with pytest.raises(PlanningError):
            TimeWindowScheduler(WindowSpec.count(4))

    def test_empty_feed(self):
        sched = TimeWindowScheduler(WindowSpec.time(10, 10))
        layout = sched.feed(np.zeros(0, dtype=np.int64))
        assert_extents(layout, [], [])


class TestParsing:
    def test_time_window_syntax(self):
        q = parse_query("select avg(v) from S [range 30 seconds slide 5]")
        w = q.sources[0].window
        assert (w.mode, w.size, w.slide, w.time_column) == ("time", 30, 5, "timestamp")

    def test_explicit_on_column(self):
        q = parse_query("select avg(v) from S [range 30 seconds on k]")
        assert q.sources[0].window.time_column == "k"

    def test_slide_unit_echo(self):
        q = parse_query("select avg(v) from S [range 30 seconds slide 10 seconds]")
        assert q.sources[0].window.slide == 10

    def test_on_without_seconds_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse_query("select avg(v) from S [range 30 on k]")


class TestPlanning:
    def test_time_column_gets_values_requirement(self):
        plan = plan_query("select avg(v) as m from S [range 10 seconds]", CATALOG)
        assert plan.profile.column_uses["timestamp"].needs_values

    def test_unknown_time_column_rejected(self):
        with pytest.raises(PlanningError):
            plan_query("select avg(v) from S [range 10 seconds on ghost]", CATALOG)

    def test_float_time_column_rejected(self):
        schema = Schema([Field("t", "float", 4, decimals=1), Field("v", "int", 4)])
        with pytest.raises(PlanningError):
            plan_query("select avg(v) from T [range 10 seconds on t]", {"T": schema})


def _stream(n=60, seed=0):
    rng = np.random.default_rng(seed)
    gaps = rng.integers(0, 4, n)
    return Batch.from_values(
        SCHEMA,
        {
            "timestamp": np.cumsum(gaps),
            "k": rng.integers(0, 3, n),
            "v": rng.integers(-20, 100, n),
        },
    )


def _run(text, stream, bounds, codec_name=None):
    plan = plan_query(text, CATALOG)
    ex = make_executor(plan)
    results = []
    prev = 0
    for bound in bounds:
        part = stream.slice(prev, bound)
        prev = bound
        if part.n == 0:
            continue
        cols = {}
        for name in SCHEMA.names:
            values = part.column(name)
            if codec_name is None:
                cols[name] = decoded_column(name, values)
            else:
                codec = get_codec(codec_name)
                cc = codec.compress(values)
                use = plan.profile.use_of(name)
                if use is not None and use.served_directly_by(codec):
                    cols[name] = ExecColumn(name, codec.direct_codes(cc), codec, cc)
                else:
                    cols[name] = decoded_column(name, codec.decompress(cc))
        results.append(ex.execute(cols, part.n))
    return QueryResult.merge(results)


class TestExecution:
    TEXT = "select timestamp, avg(v) as m, count(*) as c from S [range 12 seconds slide 4]"

    def test_grouped_time_windows(self):
        stream = _stream()
        res = _run(
            "select k, max(v) as hi from S [range 8 seconds slide 8] group by k",
            stream,
            [stream.n],
        )
        assert res.n_rows > 0

    def test_split_equals_whole(self):
        stream = _stream(seed=3)
        whole = _run(self.TEXT, stream, [stream.n])
        split = _run(self.TEXT, stream, [13, 27, 41, stream.n])
        assert split.n_rows == whole.n_rows
        for name in whole.columns:
            np.testing.assert_array_equal(split.columns[name], whole.columns[name])

    @pytest.mark.parametrize("codec_name", ["ns", "bd", "dict"])
    def test_compressed_equals_baseline(self, codec_name):
        stream = _stream(seed=5)
        base = _run(self.TEXT, stream, [stream.n])
        got = _run(self.TEXT, stream, [20, stream.n], codec_name)
        assert got.n_rows == base.n_rows
        for name in base.columns:
            np.testing.assert_allclose(got.columns[name], base.columns[name])

    def test_where_before_time_windows(self):
        stream = _stream(seed=7)
        res = _run(
            "select count(*) as c from S [range 10 seconds slide 10] where v >= 0",
            stream,
            [stream.n],
        )
        assert (res.columns["c"] > 0).all()


@settings(max_examples=30, deadline=None)
@given(
    gaps=st.lists(st.integers(min_value=0, max_value=6), min_size=8, max_size=80),
    size=st.integers(min_value=2, max_value=20),
    slide=st.integers(min_value=1, max_value=20),
    cut=st.integers(min_value=1, max_value=79),
)
def test_time_window_split_property(gaps, size, slide, cut):
    n = len(gaps)
    stream = Batch.from_values(
        SCHEMA,
        {
            "timestamp": np.cumsum(gaps),
            "k": np.arange(n) % 3,
            "v": (np.arange(n) * 13) % 97,
        },
    )
    text = f"select timestamp, avg(v) as m from S [range {size} seconds slide {slide}]"
    whole = _run(text, stream, [n])
    cut = min(cut, n - 1)
    split = _run(text, stream, [cut, n])
    assert split.n_rows == whole.n_rows
    for name in whole.columns:
        np.testing.assert_array_equal(split.columns[name], whole.columns[name])
