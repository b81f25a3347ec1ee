"""``window_distinct`` against a per-window dictionary reference.

Disjoint windows (tumbling, sampling) and overlapping ones take different
paths, and disjoint windows sort ``uint16`` keys only below 2^16 ids and
windows; every path must give each tuple's last row per window, ordered
by window, then tuple value, as int64 arrays.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.operators.distinct import window_distinct

#: the first id or window count whose keys no longer fit ``uint16``
UINT16_KEYS = 1 << 16


def reference(columns, starts, ends):
    """Each window's tuples with their last row, in tuple order."""
    rows = list(zip(*(c.tolist() for c in columns)))
    pairs = []
    for w, (s, e) in enumerate(zip(starts.tolist(), ends.tolist())):
        last = {}
        for i in range(s, e):
            last[rows[i]] = i
        pairs.extend((w, last[t]) for t in sorted(last))
    return pairs


def check(columns, starts, ends):
    windows, rows = window_distinct(columns, starts, ends)
    assert windows.dtype == rows.dtype == np.int64
    assert list(zip(windows.tolist(), rows.tolist())) == reference(
        columns, starts, ends
    )


def sliding(n, size, slide, first=0):
    """Count windows of ``size`` rows every ``slide`` rows from ``first``."""
    starts = np.arange(first, max(n - size + 1, first), slide, dtype=np.int64)
    return starts, starts + size


@st.composite
def geometries(draw):
    n = draw(st.integers(0, 60))
    kinds = ["tumbling", "sampling", "slide1", "slide7", "any"]
    kind = draw(st.sampled_from(kinds))
    first = draw(st.integers(0, 5))
    size = draw(st.integers(1, 12))
    if kind == "tumbling":
        starts, ends = sliding(n, size, size, first)
    elif kind == "sampling":
        starts, ends = sliding(n, size, size + draw(st.integers(1, 9)), first)
    elif kind == "slide1":
        starts, ends = sliding(n, size, 1, first)
    elif kind == "slide7":
        starts, ends = sliding(n, size + 7, 7, first)
    else:
        # any non-decreasing extents, empty windows included
        count = draw(st.integers(0, 12))
        bounds = st.lists(st.integers(0, n), min_size=count, max_size=count)
        starts = np.sort(np.array(draw(bounds), dtype=int))
        lengths = np.array(
            draw(st.lists(st.integers(0, 9), min_size=count, max_size=count)), dtype=int
        )
        ends = np.minimum(np.maximum.accumulate(starts + lengths), n)
    return n, np.asarray(starts, dtype=np.int64), np.asarray(ends, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(geometries(), st.integers(1, 3), st.sampled_from([2, 5, 1 << 40]), st.data())
def test_matches_the_per_window_reference(geometry, width, spread, data):
    n, starts, ends = geometry
    column = st.lists(st.integers(-spread, spread), min_size=n, max_size=n)
    columns = [np.asarray(data.draw(column), dtype=np.int64) for _ in range(width)]
    check(columns, starts, ends)


@pytest.mark.parametrize("slide", [50, 90, 7, 1])
def test_ids_past_the_radix_range(slide):
    # more than 2^16 distinct tuples: disjoint windows sort wider keys
    rng = np.random.default_rng(slide)
    n = UINT16_KEYS + 20_000
    values = rng.permutation(n).astype(np.int64)
    values[1::5] = values[: n - 1 : 5]  # repeats inside windows
    assert np.unique(values).size > UINT16_KEYS
    starts, ends = sliding(n, 50, slide)
    if slide == 1:
        starts, ends = starts[:3_000], ends[:3_000]
    check([values], starts, ends)


@pytest.mark.parametrize("slide", [1, 3])
def test_windows_past_the_radix_range(slide):
    rng = np.random.default_rng(slide)
    n = UINT16_KEYS * slide + 300
    values = rng.integers(0, 50, n).astype(np.int64)
    starts, ends = sliding(n, 3, slide)
    assert starts.size > UINT16_KEYS
    check([values], starts, ends)


def test_the_uint16_boundary():
    # 2^16 ids and 2^16 windows: the keys just leave uint16
    n = UINT16_KEYS
    values = np.arange(n, dtype=np.int64)[::-1].copy()
    starts = np.arange(n, dtype=np.int64)
    check([values], starts, starts + 1)


@pytest.mark.parametrize(
    "starts, ends",
    [([], []), ([0], [0]), ([0, 0, 0], [0, 0, 0])],
)
def test_empty_input_dtypes(starts, ends):
    windows, rows = window_distinct(
        [np.zeros(0, dtype=np.int64)],
        np.asarray(starts, dtype=np.int64),
        np.asarray(ends, dtype=np.int64),
    )
    assert windows.dtype == rows.dtype == np.int64
    assert windows.shape == rows.shape == (0,)


def test_disjoint_windows_need_no_search_and_no_int64_sort(monkeypatch):
    calls = []
    argsort, lexsort, searchsorted = np.argsort, np.lexsort, np.searchsorted

    def spy_argsort(a, *args, **kwargs):
        calls.append(("argsort", np.asarray(a).dtype))
        return argsort(a, *args, **kwargs)

    def spy_lexsort(keys, *args, **kwargs):
        calls.extend(("lexsort", np.asarray(k).dtype) for k in keys)
        return lexsort(keys, *args, **kwargs)

    def spy_searchsorted(a, *args, **kwargs):
        calls.append(("searchsorted", np.asarray(a).dtype))
        return searchsorted(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", spy_argsort)
    monkeypatch.setattr(np, "lexsort", spy_lexsort)
    monkeypatch.setattr(np, "searchsorted", spy_searchsorted)
    rng = np.random.default_rng(3)
    values = rng.integers(0, 2_000, 3_000).astype(np.int64)
    for starts, ends in (sliding(3_000, 30, 30), sliding(3_000, 30, 45, first=7)):
        window_distinct([values], starts, ends)
    assert ("lexsort", np.uint16) in calls
    assert not [c for c in calls if c[0] == "searchsorted"]
    assert not [c for c in calls if c[1] == np.int64]
    # the spies see the overlapping path's next-occurrence search
    window_distinct([values], *sliding(3_000, 30, 1))
    assert [c for c in calls if c[0] == "searchsorted"]
