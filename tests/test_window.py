"""Unit tests for window specs, schedulers, partition state."""

import numpy as np
import pytest

from repro.errors import PlanningError
from repro.stream import PartitionWindowState, WindowScheduler, WindowSpec


def assert_extents(layout, starts, ends):
    assert layout.starts.dtype == layout.ends.dtype == np.int64
    np.testing.assert_array_equal(layout.starts, starts)
    np.testing.assert_array_equal(layout.ends, ends)


class TestWindowSpec:
    def test_count_constructor(self):
        spec = WindowSpec.count(1024, 8)
        assert (spec.mode, spec.size, spec.slide) == ("count", 1024, 8)

    def test_partition_constructor(self):
        spec = WindowSpec.partition("vehicle", 1)
        assert (spec.partition_by, spec.rows) == ("vehicle", 1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mode="count", size=0),
            dict(mode="count", size=4, slide=0),
            dict(mode="partition", rows=1),
            dict(mode="partition", partition_by="k", rows=0),
            dict(mode="weird"),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(PlanningError):
            WindowSpec(**kwargs)


class TestWindowScheduler:
    def test_exact_tumbling_never_carries(self):
        sched = WindowScheduler(WindowSpec.count(4, 4))
        for _ in range(5):
            layout = sched.feed(8)
            assert layout.carry == 0
            assert_extents(layout, [0, 4], [4, 8])
            assert layout.retain_start == 8

    def test_carry_accumulates_until_window_fits(self):
        sched = WindowScheduler(WindowSpec.count(10, 10))
        assert_extents(sched.feed(4), [], [])
        assert sched.pending == 4
        layout = sched.feed(4)
        assert layout.carry == 4
        assert_extents(layout, [], [])
        layout = sched.feed(4)
        assert layout.carry == 8
        assert_extents(layout, [0], [10])
        assert layout.retain_start == 10
        assert sched.pending == 2

    def test_overlapping_retention(self):
        sched = WindowScheduler(WindowSpec.count(4, 1))
        layout = sched.feed(6)
        assert_extents(layout, [0, 1, 2], [4, 5, 6])
        assert layout.retain_start == 3  # tuples 3,4,5 feed future windows

    def test_sampling_carries_and_skips(self):
        sched = WindowScheduler(WindowSpec.count(2, 5))
        layout = sched.feed(6)
        assert_extents(layout, [0], [2])  # window [5,7) needs tuple 6
        assert layout.retain_start == 5
        layout = sched.feed(6)
        assert layout.carry == 1
        assert_extents(layout, [0, 5], [2, 7])  # merged starts at tuple 5
        # a slide past the batch end skips tuples instead of carrying them
        sched = WindowScheduler(WindowSpec.count(2, 10))
        assert_extents(sched.feed(6), [0], [2])
        assert sched.pending == 0
        assert_extents(sched.feed(6), [4], [6])

    def test_rejects_negative_feed(self):
        sched = WindowScheduler(WindowSpec.count(4, 4))
        with pytest.raises(PlanningError):
            sched.feed(-1)

    def test_requires_count_window(self):
        with pytest.raises(PlanningError):
            WindowScheduler(WindowSpec.partition("k", 1))


class TestPartitionWindowState:
    def _rows(self, keys, vals):
        return {
            "key": np.asarray(keys, dtype=np.int64),
            "val": np.asarray(vals, dtype=np.int64),
        }

    def test_latest_row_per_key(self):
        state = PartitionWindowState(WindowSpec.partition("key", 1))
        state.update(self._rows([1, 2, 1], [10, 20, 11]))
        rows = state.lookup(np.array([1, 2]))
        np.testing.assert_array_equal(rows["val"], [11, 20])

    def test_latest_rows_cross_batches(self):
        state = PartitionWindowState(WindowSpec.partition("key", 2))
        state.update(self._rows([1, 1, 1], [10, 11, 12]))
        state.update(self._rows([1], [13]))
        rows = state.lookup(np.array([1]))
        np.testing.assert_array_equal(rows["val"], [12, 13])

    def test_partial_refill_keeps_older_rows(self):
        state = PartitionWindowState(WindowSpec.partition("key", 3))
        state.update(self._rows([5], [1]))
        state.update(self._rows([5], [2]))
        rows = state.lookup(np.array([5]))
        np.testing.assert_array_equal(rows["val"], [1, 2])

    def test_unknown_keys_skipped(self):
        state = PartitionWindowState(WindowSpec.partition("key", 1))
        state.update(self._rows([1], [10]))
        assert state.lookup(np.array([99])) == {}
        assert state.lookup(np.array([])) == {}

    def test_len_counts_keys(self):
        state = PartitionWindowState(WindowSpec.partition("key", 1))
        state.update(self._rows([1, 2, 3, 1], [0, 0, 0, 0]))
        assert len(state) == 3

    def test_requires_partition_window(self):
        with pytest.raises(PlanningError):
            PartitionWindowState(WindowSpec.count(4))
