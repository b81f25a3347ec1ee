"""The grouped window path end to end: exact sums, a per-window dictionary
reference, and what the path must not do.

Group keys are numbered once per batch and key outputs are read back from
that numbering; ``sum``/``avg`` accumulate codes into int64.  Whatever the
mode, the codecs and ``force_decode``, every grouped result must equal a
plain-Python per-window reference, HAVING and ORDER BY/LIMIT included.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import CompressStreamDB, EngineConfig
from repro.datasets.queries import QUERIES
from repro.operators import base, distinct, groupby
from repro.stream import Batch, Field, Schema

MODES = ["adaptive", "baseline", "static:ns", "static:bd"]


def run(schema, query, batches, mode, force_decode, calibration):
    engine = CompressStreamDB(
        catalog={"T": schema},
        query=query,
        config=EngineConfig(
            mode=mode,
            force_decode=force_decode,
            profile_query=False,
            calibration=calibration,
        ),
    )
    return engine.run(batches, collect_outputs=True).outputs


# ----- exact grouped sums ---------------------------------------------------


@pytest.mark.parametrize("force_decode", [False, True])
@pytest.mark.parametrize("mode", MODES)
def test_grouped_sum_is_exact_past_2_53(mode, force_decode, fast_calibration):
    # float64 sums lose the low bits here: 64 values of 2^53 + 1 + j
    schema = Schema([Field("ts", "int", 8), Field("k", "int", 4), Field("v", "int", 8)])
    values = (1 << 53) + 1 + np.arange(64, dtype=np.int64)
    batch = Batch(
        schema,
        {"ts": np.arange(64), "k": np.zeros(64, dtype=np.int64), "v": values},
    )
    query = "select ts, k, sum(v) as s from T [range 64 slide 64] group by k"
    out = run(schema, query, [batch], mode, force_decode, fast_calibration)
    assert out.n_rows == 1
    assert out.columns["s"].dtype == np.int64
    assert int(out.columns["s"][0]) == sum(values.tolist())
    assert out.columns["k"].tolist() == [0]
    assert out.columns["ts"].tolist() == [63]


# ----- the grouped path against a per-window dictionary reference -----------

KEY_KINDS = {
    "dense": lambda rng, n: rng.integers(0, 4, n),
    "negative": lambda rng, n: rng.integers(-9, -5, n),
    # few values over a span far past 8 n: the column is factorized
    "wide": lambda rng, n: rng.choice([-(2**40), 7, 2**40], n),
    "extreme": lambda rng, n: rng.choice([-(2**62), 2**62 - 1], n),
}
SCHEMA = Schema(
    [Field("ts", "int", 8)]
    + [Field(f"k{j}", "int", 8) for j in range(3)]
    + [Field("v", "int", 8)]
)
AGGREGATES = "count(*) as n, sum(v) as s, avg(v) as a, min(v) as lo, max(v) as hi"


def window_rows(ts, window):
    """Row ranges of the windows a whole stream closes, in order."""
    kind, size, slide = window
    n = len(ts)
    if kind == "rows":
        return [range(s, s + size) for s in range(0, n - size + 1, slide)]
    out, start = [], ts[0] if n else 0
    while n and start + size <= ts[-1]:
        rows = [i for i in range(n) if start <= ts[i] < start + size]
        if rows:  # time windows without tuples emit nothing
            out.append(rows)
        start += slide
    return out


def reference(columns, keys, window, having, order, limit):
    """Per window, one row per key tuple in key order; HAVING, then ORDER
    BY with every visible column (by name) breaking ties, then LIMIT."""
    ts, v = columns["ts"], columns["v"]
    out = []
    for rows in window_rows(ts, window):
        groups = {}
        for i in rows:
            groups.setdefault(tuple(columns[k][i] for k in keys), []).append(i)
        result = []
        for key in sorted(groups):
            vals = [v[i] for i in groups[key]]
            row = dict(zip(keys, key), ts=ts[rows[-1]], n=len(vals), s=sum(vals))
            row.update(a=row["s"] / row["n"], lo=min(vals), hi=max(vals))
            if having is None or row[having[0]] >= having[1]:
                result.append(row)
        if order is not None:
            names = sorted(result[0]) if result else []
            name, desc = order
            result.sort(
                key=lambda r: (-r[name] if desc else r[name], *(r[c] for c in names))
            )
            result = result[:limit]
        out.extend(result)
    return out


SQL_AGG = {
    "n": "count(*)",
    "s": "sum(v)",
    "a": "avg(v)",
    "lo": "min(v)",
    "hi": "max(v)",
}


@st.composite
def grouped_cases(draw):
    n = draw(st.integers(4, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(sorted(KEY_KINDS)), min_size=1, max_size=3))
    columns = {
        "ts": np.cumsum(rng.integers(0, 3, n)),
        "v": rng.integers(-50, 200, n),
    }
    for j in range(3):
        columns[f"k{j}"] = KEY_KINDS[kinds[j % len(kinds)]](rng, n)
    shape = draw(st.sampled_from(["tumbling", "sampling", "slide1", "time"]))
    size = draw(st.integers(1, 12))
    slide = {
        "tumbling": size,
        "sampling": size + draw(st.integers(1, 5)),
        "slide1": 1,
        "time": draw(st.integers(1, size + 3)),
    }[shape]
    window = ("time" if shape == "time" else "rows", size, slide)
    having = draw(st.none() | st.tuples(st.sampled_from("ns"), st.integers(1, 60)))
    order = draw(st.none() | st.tuples(st.sampled_from(sorted(SQL_AGG)), st.booleans()))
    limit = draw(st.integers(1, 3))
    cuts = sorted(set(draw(st.lists(st.integers(1, n - 1), max_size=2))))
    mode = draw(st.sampled_from([*MODES, "static:dict"]))
    return columns, len(kinds), window, having, order, limit, cuts, mode


@settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(grouped_cases(), st.booleans())
def test_grouped_path_matches_the_per_window_reference(
    fast_calibration, case, force_decode
):
    columns, width, window, having, order, limit, cuts, mode = case
    keys = [f"k{j}" for j in range(width)]
    kind, size, slide = window
    unit = " seconds" if kind == "time" else ""
    on = " on ts" if kind == "time" else ""
    query = (
        f"select ts, {', '.join(keys)}, {AGGREGATES} from T "
        f"[range {size}{unit} slide {slide}{on}] group by {', '.join(keys)}"
    )
    if having is not None:
        query += f" having {SQL_AGG[having[0]]} >= {having[1]}"
    if order is not None:
        query += f" order by {order[0]}{' desc' if order[1] else ''} limit {limit}"
    n = columns["ts"].size
    batches = [
        Batch(SCHEMA, {name: values[lo:hi] for name, values in columns.items()})
        for lo, hi in zip([0, *cuts], [*cuts, n])
    ]
    got = run(SCHEMA, query, batches, mode, force_decode, fast_calibration)
    plain = {name: values.tolist() for name, values in columns.items()}
    want = reference(plain, keys, window, having, order, limit)
    names = ["ts", *keys, "n", "s", "a", "lo", "hi"]
    assert got.n_rows == len(want), query
    if want:
        assert list(got.columns) == names
        for name in names:
            assert got.columns[name].tolist() == [row[name] for row in want], (
                query,
                name,
            )


# ----- what the grouped path no longer does ---------------------------------


@pytest.mark.parametrize("mode", ["adaptive", "baseline"])
@pytest.mark.parametrize("slide", [1024, 256])
def test_q2_takes_no_representative_rows_and_no_float_sums(monkeypatch, mode, slide):
    """Keys read back from group numbers need no first row per group, and
    sums accumulate into int64, not through a float-weighted bincount."""
    config = QUERIES["q2"]
    batches = list(config.make_source(batch_size=10240, batches=2, seed=11))

    def refuse(*args, **kwargs):
        raise AssertionError("first_rows on the grouped path")

    monkeypatch.setattr(base, "first_rows", refuse)
    monkeypatch.setattr(distinct, "first_rows", refuse)
    assert not hasattr(groupby, "first_rows")
    bincount = np.bincount

    def integer_bincount(x, weights=None, minlength=0):
        assert weights is None, "float-weighted bincount on the grouped path"
        return bincount(x, minlength=minlength)

    monkeypatch.setattr(np, "bincount", integer_bincount)
    engine = CompressStreamDB(
        catalog=config.catalog,
        query=config.text(slide=slide),
        config=EngineConfig(mode=mode, profile_query=False),
    )
    report = engine.run(batches, collect_outputs=True)
    assert report.outputs.n_rows > 0
