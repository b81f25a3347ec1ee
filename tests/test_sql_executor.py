"""Unit tests for plan executors: windows across batches, grouped output,
passthrough projection, the Q3 join, and direct-vs-decoded equivalence."""

import numpy as np

from repro.compression import get_codec
from repro.operators.base import ExecColumn, decoded_column
from repro.sql import QueryResult, make_executor, plan_query
from repro.stream import Batch, Field, Schema

SCHEMA = Schema(
    [
        Field("ts", "int", 8),
        Field("k", "int", 4),
        Field("v", "float", 4, decimals=2),
        Field("pos", "int", 4),
    ]
)
CATALOG = {"S": SCHEMA}


def decoded_cols(batch):
    return {
        name: decoded_column(name, batch.column(name)) for name in batch.schema.names
    }


def direct_cols(batch, codec_name="bd"):
    codec = get_codec(codec_name)
    out = {}
    for name in batch.schema.names:
        cc = codec.compress(batch.column(name))
        out[name] = ExecColumn(name, codec.direct_codes(cc), codec, cc)
    return out


def make_batch(n, seed=0, k_range=3):
    rng = np.random.default_rng(seed)
    return Batch.from_values(
        SCHEMA,
        {
            "ts": np.arange(n) + 1000,
            "k": rng.integers(0, k_range, n),
            "v": np.round(rng.integers(0, 400, n) / 4, 2),
            "pos": rng.integers(0, 10_000, n),
        },
    )


class TestWindowAggExecutor:
    def test_global_avg_exact(self):
        plan = plan_query("select ts, avg(v) as m from S [range 4 slide 4]", CATALOG)
        ex = make_executor(plan)
        batch = make_batch(8)
        res = ex.execute(decoded_cols(batch), 8)
        stored = batch.column("v")
        expected = [stored[0:4].mean() / 100, stored[4:8].mean() / 100]
        np.testing.assert_allclose(res.columns["m"], expected)
        np.testing.assert_array_equal(res.columns["ts"], [1003, 1007])

    def test_direct_equals_decoded(self):
        plan = plan_query(
            "select ts, k, avg(v) as m, max(pos) as p from S [range 8 slide 8] group by k",
            CATALOG,
        )
        batch = make_batch(32, seed=5)
        res_decoded = make_executor(plan).execute(decoded_cols(batch), 32)
        res_direct = make_executor(plan).execute(direct_cols(batch, "bd"), 32)
        assert res_decoded.n_rows == res_direct.n_rows
        for name in res_decoded.columns:
            np.testing.assert_array_equal(
                res_decoded.columns[name], res_direct.columns[name], err_msg=name
            )

    def test_cross_batch_window_equals_single_feed(self):
        plan = plan_query("select avg(v) as m from S [range 6 slide 2]", CATALOG)
        whole = make_batch(20, seed=3)
        # single feed
        res_one = make_executor(plan).execute(decoded_cols(whole), 20)
        # split into uneven batches
        ex = make_executor(plan)
        parts = [whole.slice(0, 7), whole.slice(7, 12), whole.slice(12, 20)]
        merged = QueryResult.merge(
            [ex.execute(decoded_cols(p), p.n) for p in parts]
        )
        np.testing.assert_allclose(merged.columns["m"], res_one.columns["m"])

    def test_cross_batch_with_compressed_columns(self):
        plan = plan_query("select avg(v) as m from S [range 6 slide 3]", CATALOG)
        whole = make_batch(24, seed=9)
        res_one = make_executor(plan).execute(decoded_cols(whole), 24)
        ex = make_executor(plan)
        parts = [whole.slice(0, 10), whole.slice(10, 17), whole.slice(17, 24)]
        merged = QueryResult.merge(
            [ex.execute(direct_cols(p, "bd"), p.n) for p in parts]
        )
        np.testing.assert_allclose(merged.columns["m"], res_one.columns["m"])

    def test_where_filters_before_windowing(self):
        plan = plan_query(
            "select avg(v) as m from S [range 4 slide 4] where k == 1", CATALOG
        )
        batch = make_batch(64, seed=1)
        res = ex_res = make_executor(plan).execute(decoded_cols(batch), 64)
        kept = batch.column("v")[batch.column("k") == 1]
        n_windows = kept.size // 4
        assert res.n_rows == n_windows
        expected = [kept[i * 4:(i + 1) * 4].mean() / 100 for i in range(n_windows)]
        np.testing.assert_allclose(res.columns["m"], expected)

    def test_empty_batch_of_windows(self):
        plan = plan_query("select avg(v) as m from S [range 100 slide 100]", CATALOG)
        ex = make_executor(plan)
        res = ex.execute(decoded_cols(make_batch(10)), 10)
        assert res.n_rows == 0
        # the pending tuples complete a window later
        res2 = ex.execute(decoded_cols(make_batch(95)), 95)
        assert res2.n_rows == 1

    def test_grouped_output_orders_windows(self):
        plan = plan_query(
            "select k, count(*) as c from S [range 5 slide 5] group by k", CATALOG
        )
        batch = make_batch(10, seed=2, k_range=2)
        res = make_executor(plan).execute(decoded_cols(batch), 10)
        # counts per window must each sum to the window size
        counts = res.columns["c"]
        ks = res.columns["k"]
        assert counts.sum() == 10

    def test_order_by_desc_sorts_int64_min_last(self):
        # -x wraps at INT64_MIN, which used to sort the minimum first
        low = np.iinfo(np.int64).min
        schema = Schema([Field("k", "int", 8), Field("v", "int", 8)])
        batch = Batch.from_values(
            schema,
            {
                "k": np.array([1, 2, 3, 1, 2, 3, 1, 2]),
                "v": np.array([5, low, 7, 5, low, 7, 9, low]),
            },
        )
        text = (
            "select k, min(v) as m from S [range 8 slide 8] "
            "group by k order by m desc"
        )
        for limit, want_k, want_m in (
            ("", [3, 1, 2], [7, 5, low]),
            (" limit 1", [3], [7]),
        ):
            plan = plan_query(text + limit, {"S": schema})
            for columns in (decoded_cols(batch), direct_cols(batch, "dict")):
                res = make_executor(plan).execute(columns, batch.n)
                np.testing.assert_array_equal(res.columns["k"], want_k)
                np.testing.assert_array_equal(res.columns["m"], want_m)


class TestPassthroughExecutor:
    def test_projection_with_expression(self):
        plan = plan_query(
            "select ts, (pos/100) as cell from S [range unbounded]", CATALOG
        )
        batch = make_batch(16, seed=4)
        res = make_executor(plan).execute(decoded_cols(batch), 16)
        np.testing.assert_array_equal(
            res.columns["cell"], batch.column("pos") // 100
        )

    def test_distinct_projection(self):
        plan = plan_query("select distinct k from S [range unbounded]", CATALOG)
        batch = make_batch(50, seed=6, k_range=3)
        res = make_executor(plan).execute(decoded_cols(batch), 50)
        assert res.n_rows == len(np.unique(batch.column("k")))

    def test_float_output_dequantized(self):
        plan = plan_query("select v from S [range unbounded]", CATALOG)
        batch = make_batch(4, seed=7)
        res = make_executor(plan).execute(decoded_cols(batch), 4)
        np.testing.assert_allclose(res.columns["v"], batch.column("v") / 100)

    def test_where_on_passthrough(self):
        plan = plan_query(
            "select ts from S [range unbounded] where pos >= 5000", CATALOG
        )
        batch = make_batch(40, seed=8)
        res = make_executor(plan).execute(decoded_cols(batch), 40)
        expected = batch.column("ts")[batch.column("pos") >= 5000]
        np.testing.assert_array_equal(res.columns["ts"], expected)


class TestJoinExecutor:
    CAT = {"S": SCHEMA}
    TEXT = (
        "select distinct L.ts, L.k, L.pos from S [range 4 slide 4] as A, "
        "S [partition by k rows 1] as L where A.k == L.k"
    )

    def test_latest_row_semantics(self):
        plan = plan_query(self.TEXT, self.CAT)
        ex = make_executor(plan)
        batch = Batch.from_values(
            SCHEMA,
            {
                "ts": [1, 2, 3, 4],
                "k": [7, 8, 7, 8],
                "v": [0.0] * 4,
                "pos": [10, 20, 30, 40],
            },
        )
        res = ex.execute(decoded_cols(batch), 4)
        assert res.n_rows == 2
        np.testing.assert_array_equal(np.sort(res.columns["ts"]), [3, 4])

    def test_state_survives_batches(self):
        plan = plan_query(self.TEXT, self.CAT)
        ex = make_executor(plan)
        b1 = Batch.from_values(
            SCHEMA,
            {
                "ts": [1, 2, 3, 4],
                "k": [5, 5, 5, 5],
                "v": [0.0] * 4,
                "pos": [1, 2, 3, 4],
            },
        )
        ex.execute(decoded_cols(b1), 4)
        b2 = Batch.from_values(
            SCHEMA,
            {
                "ts": [9, 10, 11, 12],
                "k": [6, 5, 6, 6],
                "v": [0.0] * 4,
                "pos": [5, 6, 7, 8],
            },
        )
        res = ex.execute(decoded_cols(b2), 4)
        # window sees keys {5, 6}: latest 5 is ts 10, latest 6 is ts 12
        np.testing.assert_array_equal(np.sort(res.columns["ts"]), [10, 12])

    def test_join_does_not_see_future_rows(self):
        plan = plan_query(self.TEXT, self.CAT)
        ex = make_executor(plan)
        # two windows in one batch: the first window's lookup must not see
        # rows of the second window
        batch = Batch.from_values(
            SCHEMA,
            {
                "ts": [1, 2, 3, 4, 5, 6, 7, 8],
                "k": [1, 1, 1, 1, 1, 1, 1, 1],
                "v": [0.0] * 8,
                "pos": list(range(8)),
            },
        )
        res = ex.execute(decoded_cols(batch), 8)
        # window 1 -> latest ts 4; window 2 -> latest ts 8
        np.testing.assert_array_equal(np.sort(res.columns["ts"]), [4, 8])


class TestQueryResult:
    def test_merge(self):
        a = QueryResult(columns={"x": np.array([1, 2])}, n_rows=2)
        b = QueryResult(columns={"x": np.array([3])}, n_rows=1)
        merged = QueryResult.merge([a, b])
        np.testing.assert_array_equal(merged.columns["x"], [1, 2, 3])
        assert merged.n_rows == 3

    def test_merge_skips_empty(self):
        a = QueryResult(columns={"x": np.zeros(0)}, n_rows=0)
        merged = QueryResult.merge([a])
        assert merged.n_rows == 0
