"""Unit tests for operator kernels on direct (compressed) columns."""

import numpy as np
import pytest

from repro.compression import get_codec
from repro.errors import PlanningError
from repro.operators import (
    ExecColumn,
    combine_keys,
    compare_columns,
    compare_to_literal,
    decoded_column,
    distinct_indices,
    semi_join_latest,
    sliding_code_sums,
    sliding_extreme,
    window_aggregate,
    window_group_aggregate,
)
from repro.stream import PartitionWindowState, WindowSpec


def extents(starts, ends):
    return np.asarray(starts, dtype=np.int64), np.asarray(ends, dtype=np.int64)


def direct(name, values, codec_name="bd"):
    codec = get_codec(codec_name)
    cc = codec.compress(np.asarray(values, dtype=np.int64))
    return ExecColumn(name, codec.direct_codes(cc), codec, cc)


class TestSlidingKernels:
    def test_code_sums(self):
        codes = np.array([1, 2, 3, 4, 5], dtype=np.int64)
        sums = sliding_code_sums(codes, *extents([0, 2], [3, 5]))
        np.testing.assert_array_equal(sums, [6, 12])

    def test_code_sums_empty_windows(self):
        assert sliding_code_sums(np.arange(5), *extents([], [])).size == 0

    def test_extreme_overlapping_uses_deque(self, rng):
        values = rng.integers(0, 1000, 200)
        starts = np.arange(0, 180, 1)
        ends = starts + 16
        maxes = sliding_extreme(values, starts, ends, take_max=True)
        expected = [values[s:e].max() for s, e in zip(starts, ends)]
        np.testing.assert_array_equal(maxes, expected)

    def test_extreme_tumbling_uses_reduceat(self, rng):
        values = rng.integers(-500, 500, 96)
        starts = np.arange(0, 96, 16)
        ends = starts + 16
        mins = sliding_extreme(values, starts, ends, take_max=False)
        expected = [values[s:e].min() for s, e in zip(starts, ends)]
        np.testing.assert_array_equal(mins, expected)

    def test_extreme_single_window(self):
        out = sliding_extreme(np.array([3, 1, 2]), *extents([0], [3]), take_max=True)
        np.testing.assert_array_equal(out, [3])

    def test_extreme_gap_stride(self, rng):
        values = rng.integers(0, 100, 50)
        starts, ends = extents([0, 20, 40], [5, 25, 45])
        out = sliding_extreme(values, starts, ends, take_max=True)
        expected = [values[s:e].max() for s, e in zip(starts, ends)]
        np.testing.assert_array_equal(out, expected)

    def test_extreme_ragged_windows(self, rng):
        values = rng.integers(-100, 100, 30)
        starts, ends = extents([0, 3, 5, 20], [3, 7, 20, 21])
        out = sliding_extreme(values, starts, ends, take_max=True)
        expected = [values[s:e].max() for s, e in zip(starts, ends)]
        np.testing.assert_array_equal(out, expected)

    def test_extreme_irregular_stride_falls_back(self, rng):
        values = rng.integers(0, 50, 20)
        starts, ends = extents([0, 1, 3], [4, 5, 7])
        out = sliding_extreme(values, starts, ends, take_max=False)
        expected = [values[s:e].min() for s, e in zip(starts, ends)]
        np.testing.assert_array_equal(out, expected)

    def test_extreme_rejects_empty_window(self):
        with pytest.raises(PlanningError):
            sliding_extreme(np.arange(10), *extents([3], [3]), take_max=True)


class TestWindowAggregate:
    def test_avg_on_affine_codes(self):
        values = np.array([100, 102, 104, 106], dtype=np.int64)
        col = direct("v", values, "bd")  # codes are deltas from 100
        out = window_aggregate(col, *extents([0, 2], [2, 4]), "avg")
        np.testing.assert_array_equal(out, [101.0, 105.0])

    def test_sum_on_affine_codes(self):
        col = direct("v", [10, 20, 30], "ns")
        np.testing.assert_array_equal(
            window_aggregate(col, *extents([0], [3]), "sum"), [60]
        )

    def test_min_max_decode_through_order_codes(self):
        values = np.array([5, 1, 9, 3], dtype=np.int64)
        col = direct("v", values, "ed")  # order-preserving, non-affine
        whole = extents([0], [4])
        np.testing.assert_array_equal(window_aggregate(col, *whole, "max"), [9])
        np.testing.assert_array_equal(window_aggregate(col, *whole, "min"), [1])

    def test_count(self):
        col = decoded_column("v", np.arange(6))
        np.testing.assert_array_equal(
            window_aggregate(col, *extents([0, 4], [4, 6]), "count"), [4, 2]
        )

    def test_sum_requires_affine(self):
        col = direct("v", [1, 2, 3], "ed")
        with pytest.raises(PlanningError):
            window_aggregate(col, *extents([0], [3]), "sum")

    def test_unknown_func(self):
        with pytest.raises(PlanningError):
            window_aggregate(
                decoded_column("v", np.arange(3)), *extents([0], [3]), "median"
            )


class TestGroupBy:
    def test_combine_keys_dense_ids(self):
        k1 = decoded_column("a", np.array([10, 10, 20, 20]))
        k2 = decoded_column("b", np.array([1, 2, 1, 2]))
        combined = combine_keys([k1, k2])
        assert len(np.unique(combined)) == 4

    def test_combine_keys_on_dict_codes(self, rng):
        values = rng.integers(0, 5, 100)
        col = direct("k", values, "dict")
        combined = combine_keys([col])
        # same grouping as the raw values
        _, expected = np.unique(values, return_inverse=True)
        _, got = np.unique(combined, return_inverse=True)
        np.testing.assert_array_equal(got, expected)

    def test_group_aggregate_sum_and_count(self):
        keys = np.array([0, 0, 1, 1, 0], dtype=np.int64)
        vals = decoded_column("v", np.array([1, 2, 10, 20, 4]))
        res = window_group_aggregate(
            keys, [vals, None], ["sum", "count"], *extents([0], [5])
        )
        np.testing.assert_array_equal(res.aggregates[0], [7, 30])
        np.testing.assert_array_equal(res.aggregates[1], [3, 2])
        np.testing.assert_array_equal(res.counts, [3, 2])

    def test_group_aggregate_max_through_codes(self):
        keys = np.array([0, 1, 0, 1], dtype=np.int64)
        col = direct("v", [5, 50, 9, 40], "dict")
        res = window_group_aggregate(keys, [col], ["max"], *extents([0], [4]))
        np.testing.assert_array_equal(res.aggregates[0], [9, 50])

    def test_keys_decode_from_group_numbers(self):
        col = direct("k", [7, 8, 7, 9, 8], "dict")
        numbering = combine_keys([col])
        res = window_group_aggregate(
            numbering, [None], ["count"], *extents([0, 2], [3, 5])
        )
        (codes,) = numbering.column_codes()
        # one code per group, decoded once and gathered per result row
        assert codes.size == 3
        np.testing.assert_array_equal(col.decode(codes)[res.groups], [7, 8, 7, 8, 9])
        np.testing.assert_array_equal(res.window_ids, [0, 0, 1, 1, 1])

    def test_windows_isolated(self):
        keys = np.array([0, 0, 1, 1], dtype=np.int64)
        vals = decoded_column("v", np.array([1, 2, 3, 4]))
        res = window_group_aggregate(
            keys, [vals], ["sum"], *extents([0, 2], [2, 4])
        )
        np.testing.assert_array_equal(res.window_ids, [0, 1])
        np.testing.assert_array_equal(res.aggregates[0], [3, 7])

    def test_group_by_requires_equality_codes(self):
        # aligned ED columns support equality, but a hypothetical column
        # whose codec lacks CAP_EQUALITY must be rejected by combine_keys;
        # build one by compressing with RLE (no capabilities) and wrapping
        # the decompressed values as if they were direct codes
        rle = get_codec("rle")
        cc = rle.compress(np.array([1, 1, 2], dtype=np.int64))
        col = ExecColumn("k", np.array([1, 1, 2]), rle, cc)
        with pytest.raises(PlanningError):
            combine_keys([col])


class TestSelection:
    @pytest.mark.parametrize("codec_name", ["identity", "ns", "bd", "dict", "ed"])
    @pytest.mark.parametrize("op", ["==", "!=", "<", "<=", ">", ">="])
    def test_literal_comparison_matches_values(self, codec_name, op, rng):
        values = rng.integers(0, 50, 200)
        col = direct("v", values, codec_name)
        for literal in (0, 13, 49, 100):
            got = compare_to_literal(col, op, literal)
            expected = eval(f"values {op} literal")  # noqa: S307 - test oracle
            np.testing.assert_array_equal(got, expected, err_msg=f"{op} {literal}")

    def test_absent_equality_literal_is_all_false(self, rng):
        values = rng.integers(0, 10, 50) * 2
        col = direct("v", values, "dict")
        assert not compare_to_literal(col, "==", 3).any()
        assert compare_to_literal(col, "!=", 3).all()

    def test_compare_columns_same_affine_uses_codes(self):
        left = direct("a", [1, 5, 3], "ns")
        right = direct("b", [2, 5, 1], "ns")
        np.testing.assert_array_equal(
            compare_columns(left, right, "=="), [False, True, False]
        )
        np.testing.assert_array_equal(
            compare_columns(left, right, "<"), [True, False, False]
        )

    def test_compare_columns_mixed_codecs_decodes(self):
        left = direct("a", [1, 5, 3], "bd")
        right = direct("b", [2, 5, 1], "dict")
        np.testing.assert_array_equal(
            compare_columns(left, right, ">="), [False, True, True]
        )

    def test_compare_columns_length_mismatch(self):
        with pytest.raises(PlanningError):
            compare_columns(
                decoded_column("a", np.arange(3)),
                decoded_column("b", np.arange(4)),
                "==",
            )

    def test_unknown_operator(self):
        with pytest.raises(PlanningError):
            compare_to_literal(decoded_column("v", np.arange(3)), "~=", 1)


class TestDistinct:
    def test_first_occurrence_kept(self):
        col = direct("v", [3, 1, 3, 2, 1], "dict")
        out = distinct_indices([col], np.arange(5))
        np.testing.assert_array_equal(out, [0, 1, 3])

    def test_multi_column_tuples(self):
        a = decoded_column("a", np.array([1, 1, 2, 1]))
        b = decoded_column("b", np.array([5, 6, 5, 5]))
        out = distinct_indices([a, b], np.arange(4))
        np.testing.assert_array_equal(out, [0, 1, 2])

    def test_respects_input_indices(self):
        col = decoded_column("v", np.array([9, 9, 9, 8]))
        out = distinct_indices([col], np.array([1, 2, 3]))
        np.testing.assert_array_equal(out, [1, 3])

    def test_empty_indices(self):
        col = decoded_column("v", np.arange(4))
        assert distinct_indices([col], np.zeros(0, dtype=np.int64)).size == 0

    def test_needs_columns(self):
        with pytest.raises(PlanningError):
            distinct_indices([], np.arange(3))


class TestSemiJoin:
    def test_latest_rows_for_window_keys(self):
        state = PartitionWindowState(WindowSpec.partition("k", 1))
        state.update({"k": np.array([1, 2]), "v": np.array([10, 20])})
        part = state.merge({"k": np.array([1, 1]), "v": np.array([11, 12])})
        # probe key 1 before pending row 1, and keys 1 and 3 after both
        probe_of, (rows,) = semi_join_latest(
            [part], [np.array([1, 1, 3])], np.array([1, 2, 2]), [1], [False]
        )
        np.testing.assert_array_equal(probe_of, [0, 1])
        np.testing.assert_array_equal(part.columns["v"][rows], [11, 12])

    def test_no_match_returns_empty(self):
        state = PartitionWindowState(WindowSpec.partition("k", 1))
        part = state.merge({"k": np.zeros(0, dtype=np.int64)})
        probe_of, (rows,) = semi_join_latest(
            [part], [np.array([5])], np.array([0]), [1], [False]
        )
        assert probe_of.size == 0 and rows.size == 0
