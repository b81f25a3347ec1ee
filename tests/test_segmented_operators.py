"""The one-pass-per-batch join, group-by and distinct kernels against a
per-window reference.

The reference executors below keep the loop logic the segmented kernels
replaced: a per-key dict partition state absorbed window by window, one
``np.unique`` per window for the distinct probe keys and the group-by,
one lookup per key.  For arbitrary streams, window geometries (tumbling,
overlapping, sampling, time), batch splits (carried tails, batches with no
window, empty batches), partition depths and join forms, both must return
byte-identical :class:`QueryResult` s, row order included.
"""

import contextlib
from typing import Dict, List

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import get_codec
from repro.errors import CodecNotApplicable
from repro.operators import groupby
from repro.operators.base import ExecColumn, decoded_column
from repro.operators.distinct import distinct_indices, window_distinct
from repro.operators.groupby import combine_keys
from repro.sql import QueryResult, make_executor, plan_query
from repro.sql.executor import JoinExecutor, WindowAggExecutor, _convert_output
from repro.sql.plan import OUT_KEY, OUT_LAST
from repro.stats import factorize, factorize_rows
from repro.stream import Batch, Field, Schema

SCHEMA = Schema(
    [
        Field("ts", "int", 8),
        Field("k", "int", 4),
        Field("r", "int", 4),
        Field("v", "int", 4),
        Field("x", "float", 4, decimals=1),
    ]
)
CATALOG = {"S": SCHEMA}


# ----- the per-window reference ---------------------------------------------


class DictPartitionState:
    """Latest K rows per key as a dict of per-key arrays, absorbed per window."""

    def __init__(self, spec):
        self.spec = spec
        self.state: Dict[int, Dict[str, np.ndarray]] = {}

    def update(self, columns: Dict[str, np.ndarray]) -> None:
        keys = columns[self.spec.partition_by]
        if keys.size == 0:
            return
        rows = self.spec.rows
        uniques, inverse = np.unique(keys, return_inverse=True)
        order = np.argsort(inverse, kind="stable")
        bounds = np.flatnonzero(inverse[order][1:] != inverse[order][:-1]) + 1
        for ui, idx in enumerate(np.split(order, bounds)):
            take = idx[-rows:]
            fresh = {name: arr[take] for name, arr in columns.items()}
            prior = self.state.get(int(uniques[ui]))
            if prior is not None and take.size < rows:
                fresh = {
                    name: np.concatenate([prior[name], fresh[name]])[-rows:]
                    for name in fresh
                }
            self.state[int(uniques[ui])] = fresh


class ReferenceJoin(JoinExecutor):
    """Window by window: absorb up to the window end, probe, merge."""

    def __init__(self, plan):
        super().__init__(plan)
        self.states = [DictPartitionState(side.window) for side in self.sides]
        only = self.sides[0]
        self.semi = (
            len(self.sides) == 1
            and not only.outer
            and only.probe_column == only.key_column
        )

    def _join(self, merged, starts, ends):
        results = []
        for s, e in zip(starts.tolist(), ends.tolist()):
            global_end = self._merged_start + e
            if global_end > self._absorbed:
                lo = max(self._absorbed - self._merged_start, 0)
                pending = {name: merged[name][lo:e] for name in self._needed}
                for state in self.states:
                    state.update(pending)
                self._absorbed = global_end
            probe = self._semi if self.semi else self._general
            result = probe(merged, s, e)
            if result is not None:
                results.append(result)
        if not results:
            return QueryResult.empty(self.plan.outputs)
        return QueryResult.merge(results)

    def _semi(self, merged, s, e):
        plan = self.plan
        out: Dict[str, List[np.ndarray]] = {o.name: [] for o in plan.outputs}
        for key in np.unique(merged[self.sides[0].key_column][s:e]):
            rows = self.states[0].state.get(int(key))
            if rows is not None:
                for o in plan.outputs:
                    out[o.name].append(rows[o.source_column])
        if not out[plan.outputs[0].name]:
            return None
        columns = {
            o.name: _convert_output(o, np.concatenate(out[o.name]))
            for o in plan.outputs
        }
        return QueryResult(columns, len(next(iter(columns.values()))))

    def _general(self, merged, s, e):
        plan = self.plan
        probes = np.stack(
            [merged[side.probe_column][s:e] for side in self.sides], axis=1
        )
        combos = np.unique(probes, axis=0)
        found = np.zeros((len(self.sides), len(combos)), dtype=bool)
        latest = [
            {name: np.zeros(len(combos), dtype=np.int64) for name in self._needed}
            for _ in self.sides
        ]
        for i, state in enumerate(self.states):
            for c, key in enumerate(combos[:, i]):
                rows = state.state.get(int(key))
                if rows is not None:
                    found[i, c] = True
                    for name in self._needed:
                        latest[i][name][c] = rows[name][-1]
        keep = np.ones(len(combos), dtype=bool)
        for i, side in enumerate(self.sides):
            if not side.outer:
                keep &= found[i]
        if not keep.any():
            return None
        columns = {}
        for o, i in zip(plan.outputs, plan.output_sides):
            side = self.sides[i]
            vals = latest[i][o.source_column].copy()
            if side.outer and o.source_column == side.key_column:
                vals[~found[i]] = combos[~found[i], i]
            converted = _convert_output(o, vals)[keep]
            if side.outer and o.source_column != side.key_column:
                converted[~found[i][keep]] = np.nan
            columns[o.name] = converted
        return QueryResult(columns, int(keep.sum()))


class ReferenceGroupBy(WindowAggExecutor):
    """One ``np.unique`` per key column, then one per window."""

    def _run_windows(self, work, starts, ends):
        plan = self.plan
        if not plan.group_keys:
            return super()._run_windows(work, starts, ends)
        combined = None
        for key in plan.group_keys:
            _, dense = np.unique(work[key].codes, return_inverse=True)
            card = int(dense.max()) + 1
            combined = dense if combined is None else combined * card + dense
        outputs = plan.outputs + plan.hidden_outputs
        parts: Dict[str, List[np.ndarray]] = {o.name: [] for o in outputs}
        window_ids = []
        for w, (s, e) in enumerate(zip(starts.tolist(), ends.tolist())):
            uniques, inverse, counts = np.unique(
                combined[s:e], return_inverse=True, return_counts=True
            )
            first = np.full(uniques.size, e - s, dtype=np.int64)
            np.minimum.at(first, inverse, np.arange(e - s))
            window_ids.append(np.full(uniques.size, w, dtype=np.int64))
            for o in outputs:
                col = work[o.source_column] if o.source_column else None
                if o.kind == OUT_KEY:
                    stored = col.decode(col.codes[first + s])
                elif o.kind == OUT_LAST:
                    stored = col.decode(col.codes[np.full(uniques.size, e - 1)])
                else:
                    stored = _window_group(col, o.agg_func, s, e, inverse, counts)
                parts[o.name].append(_convert_output(o, stored))
        out = {name: np.concatenate(arrays) for name, arrays in parts.items()}
        return self._finalize(out, np.concatenate(window_ids))


def _window_group(col, func, s, e, inverse, counts):
    if func == "count":
        return counts.astype(np.int64)
    codes = col.codes[s:e]
    if func in ("sum", "avg"):
        scale, offset = col.affine
        weights = codes.astype(np.float64)
        code_sums = np.bincount(inverse, weights=weights, minlength=counts.size)
        sums = scale * code_sums + offset * counts
        if func == "sum":
            return np.rint(sums).astype(np.int64)
        return sums / np.maximum(counts, 1)
    bound = np.iinfo(np.int64)
    extreme = np.full(counts.size, bound.min if func == "max" else bound.max)
    (np.maximum if func == "max" else np.minimum).at(extreme, inverse, codes)
    return col.decode(extreme)


# ----- running both ---------------------------------------------------------


def columns_for(batch: Batch, codec_name: str, profile) -> Dict[str, ExecColumn]:
    """Direct codes where the codec serves every use of the column."""
    out = {}
    for name in batch.schema.names:
        values = batch.column(name)
        use = profile.use_of(name)
        if codec_name == "baseline" or use is None:
            out[name] = decoded_column(name, values)
            continue
        codec = get_codec(codec_name)
        try:
            cc = codec.compress(values)
        except CodecNotApplicable:
            out[name] = decoded_column(name, values)
            continue
        if use.served_directly_by(codec):
            out[name] = ExecColumn(name, codec.direct_codes(cc), codec, cc)
        else:
            out[name] = decoded_column(name, codec.decompress(cc))
    return out


def assert_identical(got: QueryResult, want: QueryResult, context: str) -> None:
    assert got.n_rows == want.n_rows, context
    assert list(got.columns) == list(want.columns), context
    for name, expected in want.columns.items():
        actual = got.columns[name]
        assert actual.dtype == expected.dtype, f"{context}:{name}"
        assert actual.tobytes() == expected.tobytes(), f"{context}:{name}"


def run_both(text: str, reference_cls, stream: Batch, cuts, codec_name: str) -> int:
    plan = plan_query(text, CATALOG)
    segmented, reference = make_executor(plan), reference_cls(plan)
    rows = 0
    for lo, hi in zip([0] + cuts, cuts + [stream.n]):
        part = stream.slice(lo, hi)
        got = segmented.execute(columns_for(part, codec_name, plan.profile), part.n)
        want = reference.execute(columns_for(part, codec_name, plan.profile), part.n)
        assert_identical(got, want, f"{text} | batch {lo}:{hi} | {codec_name}")
        rows += got.n_rows
    return rows


@st.composite
def streams(draw):
    n = draw(st.integers(0, 90))
    seed = draw(st.integers(0, 2**32 - 1))
    keys = draw(st.integers(1, 7))
    rng = np.random.default_rng(seed)
    stream = Batch(
        SCHEMA,
        {
            "ts": np.cumsum(rng.integers(0, 4, n)),
            "k": rng.integers(0, keys, n) - keys // 2,
            "r": rng.integers(-1, keys + 1, n) - keys // 2,
            "v": rng.integers(-40, 100, n),
            "x": rng.integers(-500, 500, n),
        },
    )
    # repeated cut points give empty batches, close ones batches in which
    # no window closes
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=5)))
    return stream, cuts


@st.composite
def windows(draw):
    size = draw(st.integers(1, 12))
    # slide < size overlaps, == tumbles, > samples
    slide = draw(st.integers(1, 15))
    if draw(st.booleans()):
        return f"[range {size} seconds slide {slide} on ts]"
    return f"[range {size} slide {slide}]"


CODECS = st.sampled_from(["baseline", "dict", "ns", "bd"])


# ----- joins ----------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(data=streams(), window=windows(), depth=st.integers(1, 3), codec=CODECS)
def test_comma_join_matches_per_window_reference(data, window, depth, codec):
    text = (
        f"select distinct L.ts, L.k, L.v, L.x from S {window} as A, "
        f"S [partition by k rows {depth}] as L where A.k == L.k"
    )
    run_both(text, ReferenceJoin, *data, codec)


@settings(max_examples=60, deadline=None)
@given(data=streams(), window=windows(), depth=st.integers(1, 3))
def test_derived_stream_join_matches_reference(data, window, depth):
    text = (
        "( select ts, k, v from S [range unbounded] where v >= 0 ) as F "
        f"select distinct L.ts, L.k, L.v from F {window} as A, "
        f"F [partition by k rows {depth}] as L where A.k == L.k"
    )
    run_both(text, ReferenceJoin, *data, "baseline")


JOIN_FORMS = [
    # one inner side probed on a column other than its key
    "select distinct K.ts, K.k, K.v from S {w} as A "
    "join S [partition by k rows 1] as K on A.r == K.k",
    # a lone LEFT OUTER side
    "select distinct R.k, R.v, R.x from S {w} as A "
    "left join S [partition by k rows 1] as R on A.r == R.k",
    # multi-way: inner plus LEFT OUTER
    "select distinct K.k, K.v, R.k as rk, R.ts as rts, R.x as rx from S {w} as A "
    "join S [partition by k rows 1] as K on A.k == K.k "
    "left join S [partition by k rows 1] as R on A.r == R.k",
    # multi-way: two inner sides
    "select distinct K.ts, K.k, R.v as rv from S {w} as A "
    "join S [partition by k rows 1] as K on A.k == K.k "
    "join S [partition by k rows 1] as R on A.r == R.k",
]


@settings(max_examples=120, deadline=None)
@given(
    data=streams(),
    window=windows(),
    form=st.sampled_from(JOIN_FORMS),
    codec=CODECS,
)
def test_explicit_joins_match_per_window_reference(data, window, form, codec):
    run_both(form.format(w=window), ReferenceJoin, *data, codec)


def test_join_outputs_rows_at_all():
    # guard against a vacuous property: the generated shapes do join
    stream = Batch(
        SCHEMA,
        {
            "ts": np.arange(12),
            "k": np.arange(12) % 3,
            "r": np.arange(12) % 4,
            "v": np.arange(12),
            "x": np.arange(12),
        },
    )
    for form in JOIN_FORMS:
        text = form.format(w="[range 4 slide 2]")
        assert run_both(text, ReferenceJoin, stream, [5], "dict")


# ----- group-by ---------------------------------------------------------------


@contextlib.contextmanager
def chunk_pairs(size: int):
    saved = groupby.CHUNK_PAIRS
    groupby.CHUNK_PAIRS = size
    try:
        yield
    finally:
        groupby.CHUNK_PAIRS = saved


@settings(max_examples=150, deadline=None)
@given(
    data=streams(),
    window=windows(),
    func=st.sampled_from(["min", "max", "sum", "avg", "count"]),
    column=st.sampled_from(["v", "x"]),
    keys=st.sampled_from(["k", "k, r", "r, k, v"]),
    order=st.booleans(),
    chunk=st.sampled_from([1, 5, 64, 1 << 18]),
    codec=CODECS,
)
def test_group_by_matches_per_window_reference(
    data, window, func, column, keys, order, chunk, codec
):
    text = (
        f"select ts, k, {func}({column}) as a0, count(*) as n from S {window} "
        f"group by {keys}"
    )
    if order:
        text += " order by a0 desc limit 2"
    with chunk_pairs(chunk):
        run_both(text, ReferenceGroupBy, *data, codec)


# ----- factorize, distinct ----------------------------------------------------


def wrapping_keys():
    """Four key columns whose mixed-radix tuple ids reach 2^64.

    Each column holds 65 537 distinct values, so the radix is 2^16 + 1,
    and (65533, 5, 65533, 1) combines to exactly 2^64 — the id of
    (0, 0, 0, 0) in wrapping int64 arithmetic.
    """
    diagonal = np.arange(65537, dtype=np.int64)
    extra = np.array([[0, 0, 0, 0], [65533, 5, 65533, 1]], dtype=np.int64)
    return [np.concatenate([diagonal, extra[:, j]]) for j in range(4)]


def test_combined_keys_do_not_wrap():
    columns = [decoded_column(f"c{j}", c) for j, c in enumerate(wrapping_keys())]
    # 65 539 rows, 65 538 distinct tuples: only the (0, 0, 0, 0) row repeats
    assert np.unique(combine_keys(columns)).size == 65538
    kept = distinct_indices(columns, np.arange(65539))
    assert kept.size == 65538
    assert kept[-1] == 65538


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-(2**62), 2**62), min_size=0, max_size=30),
        min_size=1,
        max_size=3,
    ),
    st.integers(0, 3),
)
def test_factorize_rows_numbers_tuples_in_lexicographic_order(columns, spread):
    n = min(len(c) for c in columns)
    # a large spread narrows the values onto the dense path; 0 sorts
    shift = 1 << (20 * spread)
    arrays = [np.asarray(c[:n], dtype=np.int64) // shift for c in columns]
    ids, count = factorize_rows(arrays)
    rows = list(zip(*(a.tolist() for a in arrays)))
    rank = {t: i for i, t in enumerate(sorted(set(rows)))}
    assert count == len(rank)
    assert ids.tolist() == [rank[t] for t in rows]
    uniques, dense = factorize(arrays[0])
    np.testing.assert_array_equal(uniques[dense], arrays[0])


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.integers(0, 4), min_size=0, max_size=40),
    st.integers(1, 8),
    st.integers(1, 10),
)
def test_window_distinct_is_the_last_occurrence_per_window(values, size, slide):
    ids = np.asarray(values, dtype=np.int64)
    starts = np.arange(0, max(ids.size - size + 1, 0), slide, dtype=np.int64)
    ends = starts + size
    got_w, got_rows = window_distinct([ids], starts, ends)
    want_w, want_rows = [], []
    for w, (s, e) in enumerate(zip(starts, ends)):
        for value in sorted(set(values[s:e])):
            want_w.append(w)
            want_rows.append(max(i for i in range(s, e) if values[i] == value))
    assert got_w.tolist() == want_w
    assert got_rows.tolist() == want_rows
