"""Window sums as segment reductions, and Q1's prefix- and sort-free paths.

``sliding_code_sums`` sums pairwise disjoint windows (tumbling, sampling,
ragged time windows) with one ``np.add.reduceat`` and keeps prefix sums
only for overlapping windows.  Both must agree with the prefix-sum
definition bit for bit, int64 wrap included.  The engine runs pin the
mechanism on the paper's Q1: its tumbling aggregate takes no prefix sum,
and at the slide-1 geometry (8 192-row batches) DICT encodes without
``np.unique``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CompressStreamDB, EngineConfig
from repro.datasets.queries import QUERIES
from repro.operators import aggregation
from repro.operators.aggregation import sliding_code_sums

NEAR_WRAP = 2**62


def prefix_sums(codes, starts, ends):
    """The definition: a wrapping int64 prefix sum, differenced per window."""
    prefix = np.zeros(codes.size + 1, dtype=np.int64)
    prefix[1:] = np.cumsum(codes, dtype=np.int64)
    return prefix[ends] - prefix[starts]


@st.composite
def windows(draw):
    """(codes, starts, ends) over one of four window layouts."""
    n = draw(st.integers(min_value=0, max_value=60))
    magnitude = draw(st.sampled_from([5, NEAR_WRAP]))
    codes = np.asarray(
        draw(
            st.lists(
                st.integers(min_value=-magnitude, max_value=magnitude),
                min_size=n,
                max_size=n,
            )
        ),
        dtype=np.int64,
    )
    layout = draw(st.sampled_from(["tiling", "sampling", "ragged", "overlapping"]))
    points = st.integers(min_value=0, max_value=n)
    if layout == "tiling":
        size = draw(st.integers(min_value=1, max_value=max(n, 1)))
        starts = np.arange(0, n, size, dtype=np.int64)
        ends = np.minimum(starts + size, n)
    elif layout == "sampling":
        size = draw(st.integers(min_value=1, max_value=8))
        slide = draw(st.integers(min_value=size, max_value=size + 8))
        starts = np.arange(0, max(n - size + 1, 0), slide, dtype=np.int64)
        ends = starts + size
    elif layout == "ragged":
        # time-like windows: ascending cut points, repeated cuts are empty
        # windows, unequal pairs leave gaps between windows
        cuts = np.sort(np.asarray(draw(st.lists(points, max_size=16)), np.int64))
        if cuts.size % 2:
            cuts = cuts[:-1]
        tiled = draw(st.booleans())
        starts = cuts[:-1] if tiled else cuts[0::2]
        ends = cuts[1:] if tiled else cuts[1::2]
    else:
        size = draw(st.integers(min_value=2, max_value=10))
        slide = draw(st.integers(min_value=1, max_value=size - 1))
        starts = np.arange(0, max(n - size + 1, 0), slide, dtype=np.int64)
        ends = starts + size
    return codes, starts.astype(np.int64), ends.astype(np.int64)


@given(windows())
@settings(max_examples=300, deadline=None)
def test_sums_equal_the_prefix_sum_definition(case):
    codes, starts, ends = case
    got = sliding_code_sums(codes, starts, ends)
    assert got.dtype == np.int64
    assert got.tolist() == prefix_sums(codes, starts, ends).tolist()


def test_empty_windows_sum_to_zero_between_full_ones():
    codes = np.arange(1, 11, dtype=np.int64)
    starts = np.array([0, 3, 3, 6, 10], dtype=np.int64)
    ends = np.array([3, 3, 6, 10, 10], dtype=np.int64)
    assert sliding_code_sums(codes, starts, ends).tolist() == [6, 0, 15, 34, 0]


def test_sums_wrap_like_int64_addition():
    codes = np.full(8, NEAR_WRAP, dtype=np.int64)
    starts = np.array([0, 4], dtype=np.int64)
    ends = np.array([4, 8], dtype=np.int64)
    assert sliding_code_sums(codes, starts, ends).tolist() == [0, 0]
    codes[4:] = -NEAR_WRAP - 1
    expected = prefix_sums(codes, starts, ends).tolist()
    assert sliding_code_sums(codes, starts, ends).tolist() == expected


# ----- Q1 mechanism ---------------------------------------------------------


class _NumpyWithout:
    """``numpy`` as seen by one module, with the named functions refusing."""

    def __init__(self, *refused):
        self.refused = refused

    def __getattr__(self, name):
        if name in self.refused:
            raise AssertionError(f"np.{name} on a path that must not take it")
        return getattr(np, name)


def run_q1(slide, batch_size, batches, mode="adaptive"):
    config = QUERIES["q1"]
    engine = CompressStreamDB(
        catalog=config.catalog,
        query=config.text(slide=slide),
        config=EngineConfig(mode=mode, profile_query=False),
    )
    source = config.make_source(batch_size=batch_size, batches=batches, seed=11)
    return engine.run(list(source), collect_outputs=True).outputs


def assert_same_outputs(got, want):
    assert got.n_rows == want.n_rows > 0
    for name, column in want.columns.items():
        np.testing.assert_array_equal(got.columns[name], column, err_msg=name)


@pytest.mark.parametrize("mode", ["adaptive", "static:bd", "static:dict"])
def test_q1_tumbling_aggregate_takes_no_prefix_sum(monkeypatch, mode):
    config = QUERIES["q1"]
    want = run_q1(config.window, 10240, 3, mode="baseline")
    monkeypatch.setattr(aggregation, "np", _NumpyWithout("cumsum"))
    got = run_q1(config.window, 10240, 3, mode=mode)
    monkeypatch.undo()
    assert_same_outputs(got, want)


def test_q1_slide_one_encodes_dict_without_unique(monkeypatch):
    want = run_q1(1, 8192, 2, mode="baseline")

    def refuse(*args, **kwargs):
        raise AssertionError("np.unique at the slide-1 geometry")

    for mode in ("adaptive", "static:dict"):
        monkeypatch.setattr(np, "unique", refuse)
        got = run_q1(1, 8192, 2, mode=mode)
        monkeypatch.undo()
        assert_same_outputs(got, want)
