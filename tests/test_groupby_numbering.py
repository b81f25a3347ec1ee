"""Group-by numbering: mixed-radix key ids and the (window, group) slot step.

``factorize_rows`` mixes column offsets in mixed radix and renumbers over
known spans; ``window_group_aggregate`` aggregates over the whole
(window, group) span when it is dense, falls back to ``factorize`` when
it is not, and reads tumbling windows as one slice.  Each path is held
to a plain-Python reference here, and the Q2 geometry is checked to run
without a sort.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CompressStreamDB, EngineConfig
from repro.compression import get_codec
from repro.datasets.queries import QUERIES
from repro.operators import groupby
from repro.operators.base import ExecColumn, decoded_column
from repro.operators.groupby import combine_keys, window_group_aggregate
from repro.stats import DENSE_SPAN_FACTOR, factorize_rows
from repro.stream.window import PartitionWindowState, WindowSpec

FUNCS = ["count", "sum", "avg", "max", "min"]


def value_column(values: np.ndarray) -> ExecColumn:
    """Base-Delta codes: affine with a non-zero offset, order-preserving."""
    if values.size == 0:
        return decoded_column("v", values)
    codec = get_codec("bd")
    compressed = codec.compress(values)
    return ExecColumn("v", codec.direct_codes(compressed), codec, compressed)


def reference(keys, values, starts, ends):
    """Per window, a dict from key to its rows; rows in key order."""
    out = []
    for w, (s, e) in enumerate(zip(starts.tolist(), ends.tolist())):
        groups = {}
        for i in range(s, e):
            groups.setdefault(int(keys[i]), []).append(i)
        for key in sorted(groups):
            rows = groups[key]
            vals = [int(values[i]) for i in rows]
            total, size = sum(vals), len(rows)
            out.append((w, rows[0], size, total, total / size, max(vals), min(vals)))
    return out


def check(keys, values, starts, ends):
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    got = window_group_aggregate(
        keys, [None, *[value_column(values)] * 4], FUNCS, starts, ends
    )
    want = reference(keys, values, starts, ends)
    columns = list(zip(*want)) if want else [()] * 7
    assert got.window_ids.tolist() == list(columns[0])
    assert got.representatives.tolist() == list(columns[1])
    assert got.counts.tolist() == list(columns[2])
    count, total, mean, high, low = got.aggregates
    assert count.tolist() == list(columns[2])
    assert total.tolist() == list(columns[3])
    assert mean.tolist() == list(columns[4])
    assert high.tolist() == list(columns[5])
    assert low.tolist() == list(columns[6])


@st.composite
def batches(draw, max_rows=60):
    n = draw(st.integers(0, max_rows))
    groups = draw(st.integers(1, 12))
    keys = np.asarray(
        draw(st.lists(st.integers(0, groups - 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    # dense ids, as combine_keys returns them
    keys = np.unique(keys, return_inverse=True)[1].astype(np.int64).reshape(-1)
    values = np.asarray(
        draw(st.lists(st.integers(-500, 500), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    return keys, values


@settings(max_examples=150, deadline=None)
@given(batches(), st.lists(st.integers(0, 9), min_size=0, max_size=12))
def test_tumbling_windows_read_as_a_slice(batch, sizes):
    # zero sizes are the empty windows of a time window's gaps
    keys, values = batch
    ends = np.minimum(np.cumsum(np.asarray(sizes, dtype=np.int64)), keys.size)
    starts = np.concatenate([[0], ends[:-1]])[: ends.size].astype(np.int64)
    check(keys, values, starts, ends)


@settings(max_examples=150, deadline=None)
@given(
    batches(),
    st.integers(1, 12),
    st.integers(1, 12),
    st.sampled_from([1, 3, 7, 1 << 18]),
)
def test_overlapping_windows_in_chunks(batch, size, slide, chunk):
    keys, values = batch
    starts = np.arange(0, max(keys.size - size + 1, 0), slide, dtype=np.int64)
    with mock.patch.object(groupby, "CHUNK_PAIRS", chunk):
        check(keys, values, starts, starts + size)


@settings(max_examples=100, deadline=None)
@given(batches(), st.lists(st.tuples(st.integers(0, 6), st.integers(0, 8))))
def test_time_windows_with_empty_gaps(batch, steps):
    # starts and ends both non-decreasing, some windows empty, some apart
    keys, values = batch
    starts, ends, start, end = [], [], 0, 0
    for step, extent in steps:
        start = min(start + step, keys.size)
        end = min(max(end, start + extent), keys.size)
        starts.append(start)
        ends.append(end)
    check(keys, values, starts, ends)


def test_wide_slot_span_falls_back_to_factorize(monkeypatch):
    calls = []
    real = groupby.factorize

    def spy(values):
        calls.append(values.size)
        return real(values)

    monkeypatch.setattr(groupby, "factorize", spy)
    # 40 one-row windows over 40 distinct groups: 1 600 slots for 40 pairs
    keys = np.arange(40, dtype=np.int64)[::-1].copy()
    values = np.arange(40, dtype=np.int64) * 3
    starts = np.arange(40, dtype=np.int64)
    assert 40 * 40 >= DENSE_SPAN_FACTOR * 40
    check(keys, values, starts, starts + 1)
    assert calls == [40]
    # ... and the same windows overlapping, so the rows are gathered
    calls.clear()
    check(keys, values, starts[:-1], starts[:-1] + 2)
    assert calls == [78]


def test_dense_slot_span_does_not_factorize(monkeypatch):
    def refuse(values):
        raise AssertionError("dense (window, group) span was factorized")

    monkeypatch.setattr(groupby, "factorize", refuse)
    rng = np.random.default_rng(3)
    keys = rng.integers(0, 5, 400).astype(np.int64)
    keys[:5] = np.arange(5)
    starts = np.arange(0, 400, 40, dtype=np.int64)
    check(keys, rng.integers(-9, 9, 400), starts, starts + 40)
    check(keys, rng.integers(-9, 9, 400), starts[:-1], starts[:-1] + 80)


def test_empty_input():
    keys = np.zeros(0, dtype=np.int64)
    none = np.zeros(0, dtype=np.int64)
    columns = [None, decoded_column("v", keys)]
    got = window_group_aggregate(keys, columns, ["count", "avg"], none, none)
    for array, dtype in zip(
        [got.window_ids, got.representatives, got.counts, *got.aggregates],
        [np.int64, np.int64, np.int64, np.int64, np.float64],
    ):
        assert array.dtype == dtype and array.size == 0
    # windows that cover no rows
    check(keys, keys, [0, 0], [0, 0])


# ----- factorize_rows ---------------------------------------------------------


COLUMN_KINDS = {
    "dense": lambda rng, n: rng.integers(0, 5, n),
    "negative": lambda rng, n: rng.integers(-7, -2, n),
    "wide": lambda rng, n: rng.integers(-(2**62), 2**62, n),
    "near_max": lambda rng, n: (2**62) - rng.integers(0, 4, n),
    "near_min": lambda rng, n: -(2**62) + rng.integers(0, 4, n),
    "two_ends": lambda rng, n: rng.choice([-(2**62), 2**62], n),
    "constant": lambda rng, n: np.full(n, -(2**62) + 1),
}


def lexicographic_ranks(columns):
    rows = list(zip(*(c.tolist() for c in columns)))
    rank = {t: i for i, t in enumerate(sorted(set(rows)))}
    return [rank[t] for t in rows], len(rank)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.sampled_from(sorted(COLUMN_KINDS)), min_size=1, max_size=4),
    st.integers(0, 50),
    st.integers(0, 2**32),
)
def test_factorize_rows_mixes_wide_negative_and_extreme_columns(kinds, n, seed):
    rng = np.random.default_rng(seed)
    columns = [np.asarray(COLUMN_KINDS[k](rng, n), dtype=np.int64) for k in kinds]
    ids, count = factorize_rows(columns)
    want, want_count = lexicographic_ranks(columns)
    assert ids.dtype == np.int64
    assert ids.tolist() == want
    assert count == want_count


@pytest.mark.parametrize(
    "kinds",
    [
        ("near_max", "near_min", "negative", "dense"),
        ("wide", "dense", "negative"),
        ("dense", "wide", "near_min"),
        ("two_ends", "two_ends", "two_ends", "two_ends"),
    ],
)
def test_factorize_rows_extreme_columns_at_size(kinds):
    rng = np.random.default_rng(len(kinds))
    columns = [np.asarray(COLUMN_KINDS[k](rng, 3000), dtype=np.int64) for k in kinds]
    ids, count = factorize_rows(columns)
    want, want_count = lexicographic_ranks(columns)
    assert ids.tolist() == want
    assert count == want_count


def test_dense_keys_renumber_without_sorting(monkeypatch):
    # Q2-like: the first key determines the others, so the span product
    # 60 x 20 x 7 passes 8 n but the renumbered tuples stay few
    rng = np.random.default_rng(5)
    plug = rng.integers(0, 60, 400)
    columns = [plug, plug // 3 - 40, 2**40 + plug % 7]

    def refuse(*args, **kwargs):
        raise AssertionError("dense keys were sorted")

    monkeypatch.setattr(np, "unique", refuse)
    ids, count = factorize_rows(columns)
    monkeypatch.undo()
    want, want_count = lexicographic_ranks(columns)
    assert ids.tolist() == want
    assert count == want_count


# ----- Q2 stays sort-free -----------------------------------------------------


def test_q2_geometry_groups_without_a_sort(monkeypatch):
    """Q2's three keys over one 102 400-row batch of tumbling windows."""
    config = QUERIES["q2"]
    batch = next(iter(config.make_source(batch_size=102400, batches=1, seed=11)))
    names = ("plug", "household", "house")
    keys = [decoded_column(k, batch.column(k)) for k in names]
    value = decoded_column("value", batch.column("plug"))
    starts = np.arange(0, 102400, 1024, dtype=np.int64)

    def refuse(*args, **kwargs):
        raise AssertionError("the Q2 group-by sorted")

    for name in ("unique", "sort", "argsort", "lexsort"):
        monkeypatch.setattr(np, name, refuse)
    ids = combine_keys(keys)
    got = window_group_aggregate(ids, [value], ["count"], starts, starts + 1024)
    monkeypatch.undo()
    assert ids.tolist() == lexicographic_ranks([batch.column(k) for k in names])[0]
    assert got.counts.sum() == 102400
    assert np.array_equal(np.unique(got.window_ids), np.arange(100))


def test_q2_engine_pass_calls_no_unique(monkeypatch):
    config = QUERIES["q2"]
    batches = list(config.make_source(batch_size=102400, batches=2, seed=3))
    engine = CompressStreamDB(
        catalog=config.catalog,
        query=config.text(slide=config.window),
        config=EngineConfig(profile_query=False),
    )

    def refuse(*args, **kwargs):
        raise AssertionError("np.unique on the Q2 path")

    monkeypatch.setattr(np, "unique", refuse)
    report = engine.run(batches, collect_outputs=True)
    assert report.outputs.n_rows > 0


# ----- partition window state ---------------------------------------------------


@pytest.mark.parametrize("rows", [1, 3])
def test_partition_state_len_counts_distinct_keys(rows):
    state = PartitionWindowState(WindowSpec.partition("plug", rows))
    assert len(state) == 0
    source = QUERIES["q2"].make_source(batch_size=500, batches=2, seed=2)
    seen = set()
    for batch in source:
        state.update(batch)
        seen.update(batch.column("plug").tolist())
        assert len(state) == len(seen)
