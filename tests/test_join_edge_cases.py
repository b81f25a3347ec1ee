"""Edge cases for the join executor: multi-row partitions, empty windows,
filtered derived streams, batch cuts against a definitional reference,
and example-script sanity."""

import itertools
import py_compile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.operators.base import decoded_column
from repro.sql import QueryResult, make_executor, plan_query
from repro.stream import Batch, Field, Schema

SCHEMA = Schema([Field("ts"), Field("k", "int", 4), Field("v", "int", 4)])
CATALOG = {"S": SCHEMA}


def run(text, columns, parts=None):
    plan = plan_query(text, CATALOG)
    ex = make_executor(plan)
    batch = Batch.from_values(SCHEMA, columns)
    bounds = parts or [batch.n]
    results = []
    prev = 0
    for b in bounds:
        part = batch.slice(prev, b)
        prev = b
        cols = {n: decoded_column(n, part.column(n)) for n in SCHEMA.names}
        results.append(ex.execute(cols, part.n))
    return QueryResult.merge(results)


class TestPartitionRows:
    TEXT2 = (
        "select L.ts, L.k from S [range 4 slide 4] as A, "
        "S [partition by k rows 2] as L where A.k == L.k"
    )

    def test_two_latest_rows_per_key(self):
        res = run(
            self.TEXT2,
            {"ts": [1, 2, 3, 4], "k": [7, 7, 7, 8], "v": [0, 0, 0, 0]},
        )
        # key 7: latest two rows (ts 2, 3); key 8: only one row exists
        np.testing.assert_array_equal(np.sort(res.columns["ts"]), [2, 3, 4])

    def test_rows_accumulate_across_batches(self):
        res = run(
            self.TEXT2,
            {
                "ts": [1, 2, 3, 4, 5, 6, 7, 8],
                "k": [9, 9, 9, 9, 9, 9, 9, 9],
                "v": [0] * 8,
            },
            parts=[4, 8],
        )
        # two windows; each emits the 2 latest rows of key 9 at window end
        np.testing.assert_array_equal(np.sort(res.columns["ts"]), [3, 4, 7, 8])


class TestJoinWithDerivedFilter:
    def test_where_in_derived_stream(self):
        text = (
            "( select ts, k from S [range unbounded] where v >= 10 ) as F "
            "select L.ts from F [range 2 slide 2] as A, "
            "F [partition by k rows 1] as L where A.k == L.k"
        )
        res = run(
            text,
            {
                "ts": [1, 2, 3, 4, 5, 6],
                "k": [1, 1, 1, 1, 1, 1],
                "v": [0, 20, 30, 0, 40, 50],
            },
        )
        # rows with v<10 never enter the derived stream: windows form over
        # ts {2,3} and {5,6}; latest per window: ts 3 and ts 6
        np.testing.assert_array_equal(np.sort(res.columns["ts"]), [3, 6])


class TestExamplesCompile:
    @pytest.mark.parametrize(
        "name",
        [
            "quickstart.py",
            "smart_grid_monitoring.py",
            "linear_road_tolls.py",
            "cluster_anomaly.py",
            "edge_deployment.py",
        ],
    )
    def test_compiles(self, name):
        path = Path(__file__).resolve().parent.parent / "examples" / name
        assert path.exists()
        py_compile.compile(str(path), doraise=True)


# ----- batch cuts against a definitional reference ----------------------------

CUT_SCHEMA = Schema(
    [Field("ts"), Field("k", "int", 4), Field("r", "int", 4), Field("v", "int", 4)]
)
CUT_CATALOG = {"S": CUT_SCHEMA}


def run_cut(text, batch, cuts):
    """The engine's merged result over ``batch`` split at ``cuts``."""
    ex = make_executor(plan_query(text, CUT_CATALOG))
    bounds = [0] + list(cuts) + [batch.n]
    results = []
    for lo, hi in zip(bounds, bounds[1:]):
        part = batch.slice(lo, hi)
        cols = {n: decoded_column(n, part.column(n)) for n in CUT_SCHEMA.names}
        results.append(ex.execute(cols, part.n))
    return QueryResult.merge(results)


class TestSamplingWindowCuts:
    # windows [0, 2), [3, 5), [6, 8): row 5 lies in none, yet it is its
    # key's latest row when the last window ends
    @pytest.mark.parametrize(
        "text, k, r, expected",
        [
            (
                "select L.ts from S [range 2 slide 3] as A "
                "join S [partition by k rows 1] as L on A.r == L.k",
                [0, 1, 0, 1, 1, 1, 0, 0],
                [1, 0, 1, 1, 1, 0, 1, 1],
                [0, 1, 4, 5],
            ),
            (
                "select L.ts from S [range 2 slide 3] as A, "
                "S [partition by k rows 2] as L where A.k == L.k",
                [0, 0, 0, 0, 0, 0, 0, 1],
                [0] * 8,
                [0, 1, 3, 4, 5, 6, 7],
            ),
        ],
        ids=["explicit_rows_1", "comma_rows_2"],
    )
    @pytest.mark.parametrize("cuts", [[], [6], [7], [3, 7]])
    def test_rows_between_windows_count_as_arrived(self, text, k, r, expected, cuts):
        batch = Batch.from_values(
            CUT_SCHEMA, {"ts": np.arange(8), "k": k, "r": r, "v": [0] * 8}
        )
        res = run_cut(text, batch, cuts)
        np.testing.assert_array_equal(res.columns["ts"], expected)


def windows_of(ts, size, slide, timed):
    """(start, end) row extents of every window the stream closes."""
    if not timed:
        return [(s, s + size) for s in range(0, len(ts) - size + 1, slide)]
    extents = []
    for lo in range(ts[0], ts[-1] - size + 1, slide) if ts else ():
        rows = [i for i, t in enumerate(ts) if lo <= t < lo + size]
        if rows:
            extents.append((rows[0], rows[-1] + 1))
    return extents


def reference_join(rows, extents, sides, outputs):
    """Per window and distinct probe tuple, each side's last K rows of the
    probed key among all rows before the window's end; a LEFT side with
    none contributes its probe value as key and NaN elsewhere."""
    out = []
    for s, e in extents:
        probes = sorted({tuple(row[p] for _, _, p, _, _ in sides) for row in rows[s:e]})
        for probe in probes:
            matches = {}
            for (alias, key, _, depth, outer), value in zip(sides, probe):
                hits = [row for row in rows[:e] if row[key] == value][-depth:]
                if not hits and not outer:
                    break
                matches[alias] = hits or [{key: value}]
            else:
                aliases = list(matches)
                for combo in itertools.product(*matches.values()):
                    found = dict(zip(aliases, combo))
                    out.append(
                        [found[alias].get(col, np.nan) for alias, col in outputs]
                    )
    return np.array(out, dtype=np.float64).reshape(len(out), len(outputs))


def join_form(kind, depth, window):
    """(query text, sides, outputs, derived filter) of one join shape;
    a side is (alias, key, probe, rows, outer)."""
    if kind == "comma":
        sides = [("L", "k", "k", depth, False)]
        text = (
            f"select distinct L.ts as o0, L.k as o1, L.v as o2 from S {window} as A, "
            f"S [partition by k rows {depth}] as L where A.k == L.k"
        )
        return text, sides, [("L", "ts"), ("L", "k"), ("L", "v")], False
    if kind == "derived":
        sides = [("L", "k", "k", depth, False)]
        text = (
            "( select ts, k, r, v from S [range unbounded] where v >= 0 ) as F "
            f"select distinct L.ts as o0, L.v as o1 from F {window} as A, "
            f"F [partition by k rows {depth}] as L where A.k == L.k"
        )
        return text, sides, [("L", "ts"), ("L", "v")], True
    clauses = {
        "self": [("K", "k", "k", 1, False)],
        "cross": [("K", "k", "r", 1, False)],
        "left_self": [("K", "k", "k", 1, True)],
        "left_cross": [("K", "k", "r", 1, True)],
        "two": [("K", "k", "k", 1, False), ("R", "k", "r", 1, True)],
        "two_inner": [("K", "k", "r", 1, False), ("R", "k", "k", 1, False)],
    }[kind]
    joins = " ".join(
        f"{'left join' if outer else 'join'} S [partition by {key} rows 1] "
        f"as {alias} on A.{probe} == {alias}.{key}"
        for alias, key, probe, _, outer in clauses
    )
    outputs = [(alias, col) for alias, *_ in clauses for col in ("ts", "k", "v")]
    items = ", ".join(
        f"{alias}.{col} as o{i}" for i, (alias, col) in enumerate(outputs)
    )
    text = f"select distinct {items} from S {window} as A {joins}"
    return text, clauses, outputs, False


def result_rows(result, width):
    if not result.n_rows:
        return np.zeros((0, width))
    names = [f"o{i}" for i in range(width)]
    return np.stack([result.columns[n].astype(np.float64) for n in names], axis=1)


@st.composite
def cut_streams(draw):
    n = draw(st.integers(0, 60))
    keys = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    batch = Batch(
        CUT_SCHEMA,
        {
            "ts": np.cumsum(rng.integers(0, 4, n)),
            "k": rng.integers(0, keys, n),
            "r": rng.integers(-1, keys + 1, n),
            "v": rng.integers(-20, 60, n),
        },
    )
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=5)))
    return batch, cuts


@settings(max_examples=200, deadline=None)
@given(
    data=cut_streams(),
    kind=st.sampled_from(
        ["comma", "derived", "self", "cross", "left_self", "left_cross", "two", "two_inner"]
    ),
    depth=st.integers(1, 3),
    size=st.integers(1, 10),
    slide=st.integers(1, 13),
    timed=st.booleans(),
)
def test_join_is_cut_invariant_and_matches_reference(
    data, kind, depth, size, slide, timed
):
    batch, cuts = data
    window = (
        f"[range {size} seconds slide {slide} on ts]"
        if timed
        else f"[range {size} slide {slide}]"
    )
    text, sides, outputs, filtered = join_form(kind, depth, window)
    rows = [
        {name: int(batch.column(name)[i]) for name in CUT_SCHEMA.names}
        for i in range(batch.n)
    ]
    if filtered:
        rows = [row for row in rows if row["v"] >= 0]
    extents = windows_of([row["ts"] for row in rows], size, slide, timed)
    expected = reference_join(rows, extents, sides, outputs)

    whole = run_cut(text, batch, [])
    cut = run_cut(text, batch, cuts)
    np.testing.assert_array_equal(result_rows(whole, len(outputs)), expected)
    assert cut.n_rows == whole.n_rows
    for name, column in whole.columns.items():
        assert cut.columns[name].dtype == column.dtype
        assert cut.columns[name].tobytes() == column.tobytes()
