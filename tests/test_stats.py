"""Unit tests for column statistics (the Eq. 10-17 inputs).

``ColumnStats.from_values`` is a fused pass (threshold counts, a presence
array or a sort, one diff); the reference below keeps the multi-pass
formulas it replaced, with exact Python-int byte widths, and every field
must match it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import get_codec
from repro.compression.kernels import scalar_reference_mode
from repro.datasets import cluster_monitoring, linear_road, smart_grid
from repro.errors import CodecError
from repro.stats import (
    DENSE_SPAN_FACTOR,
    ColumnStats,
    average_run_length,
    elias_delta_bits,
    elias_gamma_bits,
    value_domain,
)
from repro.types import bytes_for_signed, bytes_for_unsigned

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1

#: the values on either side of every unsigned and two's-complement byte step
BYTE_BOUNDARIES = sorted(
    {
        v
        for k in range(1, 9)
        for edge in (1 << (8 * k - 1), 1 << (8 * k))
        for v in (edge - 1, edge, -edge - 1, -edge, 0, 1, -1)
        if INT64_MIN <= v <= INT64_MAX
    }
)


def reference_value_domain(values, signed=None):
    """Per-element widths from exact Python-int byte counts."""
    values = np.asarray(values, dtype=np.int64)
    if signed is None:
        signed = bool((values < 0).any())
    return np.asarray(
        [
            bytes_for_signed(v, v) if signed else bytes_for_unsigned(v)
            for v in values.tolist()
        ],
        dtype=np.int64,
    )


def reference_stats(values, size_c=8):
    """The multi-pass statistics the fused ``from_values`` replaced."""
    values = np.asarray(values, dtype=np.int64)
    widths = reference_value_domain(values)
    hist = np.bincount(widths, minlength=9)
    diffs = np.diff(values) if values.size > 1 else np.zeros(1, dtype=np.int64)
    return ColumnStats(
        n=int(values.size),
        size_c=size_c,
        min_value=int(values.min()),
        max_value=int(values.max()),
        kindnum=int(np.unique(values).size),
        avg_run_length=average_run_length(values),
        value_domain_max=int(widths.max()),
        value_domain_sum=int(widths.sum()),
        width_histogram=tuple(int(x) for x in hist),
        delta_min=int(diffs.min()),
        delta_max=int(diffs.max()),
    )


@st.composite
def int64_columns(draw):
    """int64 columns: extremes, constant, all-negative, and spans just
    below, at and just above the dense-presence cutoff."""
    n = draw(st.integers(min_value=2, max_value=300))
    kind = draw(st.sampled_from(["extremes", "constant", "negative", "cutoff"]))
    if kind == "extremes":
        element = st.one_of(
            st.sampled_from(BYTE_BOUNDARIES),
            st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
        )
        values = draw(st.lists(element, min_size=n, max_size=n))
        return np.asarray(values, dtype=np.int64)
    if kind == "constant":
        value = draw(st.sampled_from(BYTE_BOUNDARIES))
        return np.full(draw(st.integers(1, 300)), value, dtype=np.int64)
    if kind == "negative":
        element = st.one_of(
            st.sampled_from([v for v in BYTE_BOUNDARIES if v < 0]),
            st.integers(min_value=INT64_MIN, max_value=-1),
        )
        values = draw(st.lists(element, min_size=n, max_size=n))
        return np.asarray(values, dtype=np.int64)
    span = DENSE_SPAN_FACTOR * n + draw(st.integers(min_value=-1, max_value=1))
    lo = draw(
        st.one_of(
            st.sampled_from([INT64_MIN, -span // 2, 0, INT64_MAX - span]),
            st.integers(min_value=INT64_MIN, max_value=INT64_MAX - span),
        )
    )
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))
    pool = rng.integers(0, span + 1, draw(st.integers(min_value=1, max_value=n)))
    offsets = rng.choice(pool, n)
    if draw(st.booleans()):
        offsets.sort()  # long runs
    first, last = rng.choice(n, 2, replace=False)
    offsets[first], offsets[last] = 0, span  # the span is exactly `span`
    return np.int64(lo) + offsets.astype(np.int64)


class TestEliasBits:
    @pytest.mark.parametrize(
        "value,expected",
        [(1, 1), (2, 3), (3, 3), (4, 5), (7, 5), (8, 7), (255, 15), (256, 17)],
    )
    def test_gamma_lengths(self, value, expected):
        assert elias_gamma_bits(value) == expected

    @pytest.mark.parametrize(
        "value,expected",
        # delta(x) = gamma(len) + (len-1) bits where len = bitlen(x)
        [(1, 1), (2, 4), (3, 4), (4, 5), (7, 5), (8, 8), (15, 8), (16, 9), (255, 14)],
    )
    def test_delta_lengths(self, value, expected):
        assert elias_delta_bits(value) == expected

    def test_delta_shorter_than_gamma_for_large_values(self):
        assert elias_delta_bits(1 << 30) < elias_gamma_bits(1 << 30)

    @pytest.mark.parametrize("fn", [elias_gamma_bits, elias_delta_bits])
    def test_rejects_nonpositive(self, fn):
        with pytest.raises(CodecError):
            fn(0)
        with pytest.raises(CodecError):
            fn(-3)


class TestRunLength:
    def test_all_equal(self):
        assert average_run_length(np.full(100, 5)) == 100.0

    def test_all_distinct(self):
        assert average_run_length(np.arange(100)) == 1.0

    def test_mixed(self):
        # runs: [1,1], [2], [3,3,3] -> 6 values / 3 runs
        assert average_run_length(np.array([1, 1, 2, 3, 3, 3])) == 2.0

    def test_empty(self):
        assert average_run_length(np.zeros(0, dtype=np.int64)) == 0.0

    def test_single(self):
        assert average_run_length(np.array([9])) == 1.0


class TestValueDomain:
    def test_unsigned_widths(self):
        values = np.array([0, 1, 255, 256, 65536, 1 << 31], dtype=np.int64)
        np.testing.assert_array_equal(value_domain(values), [1, 1, 1, 2, 3, 4])

    def test_signed_column_penalizes_positives_too(self):
        # 200 fits one unsigned byte but needs 2 signed bytes
        widths = value_domain(np.array([-1, 200], dtype=np.int64))
        np.testing.assert_array_equal(widths, [1, 2])

    def test_signed_boundaries(self):
        values = np.array([-128, -129, 127, 128], dtype=np.int64)
        widths = value_domain(values, signed=True)
        np.testing.assert_array_equal(widths, [1, 2, 1, 2])

    def test_forced_unsigned_mode(self):
        widths = value_domain(np.array([127, 128, 255], dtype=np.int64), signed=False)
        np.testing.assert_array_equal(widths, [1, 1, 1])

    def test_huge_values(self):
        values = np.array([(1 << 62) + 12345, 1 << 53], dtype=np.int64)
        np.testing.assert_array_equal(value_domain(values), [8, 7])

    def test_empty(self):
        assert value_domain(np.zeros(0, dtype=np.int64)).size == 0

    def test_int64_min(self):
        # |INT64_MIN| overflows int64; it needs all 8 bytes
        widths = value_domain(np.array([INT64_MIN, 5], dtype=np.int64))
        np.testing.assert_array_equal(widths, [8, 1])

    @given(int64_columns())
    @settings(max_examples=150, deadline=None)
    def test_matches_exact_byte_counts(self, values):
        np.testing.assert_array_equal(
            value_domain(values), reference_value_domain(values)
        )
        np.testing.assert_array_equal(
            value_domain(values, signed=True),
            reference_value_domain(values, signed=True),
        )
        if values.min() >= 0:
            np.testing.assert_array_equal(
                value_domain(values, signed=False),
                reference_value_domain(values, signed=False),
            )


class TestFusedStatsParity:
    """``from_values`` equals the multi-pass reference on every field."""

    @given(int64_columns())
    @settings(max_examples=200, deadline=None)
    def test_generated_columns(self, values):
        assert ColumnStats.from_values(values) == reference_stats(values)

    def test_int64_min_column(self):
        values = np.array([INT64_MIN, 0], dtype=np.int64)
        st = ColumnStats.from_values(values)
        assert st.value_domain_max == 8
        assert st.ns_width == 8
        assert st == reference_stats(values)

    @pytest.mark.parametrize("scalar", [False, True])
    @pytest.mark.parametrize("name", ["ns", "nsv"])
    def test_int64_min_roundtrip(self, name, scalar):
        values = np.array([INT64_MIN, 0, 5, INT64_MIN], dtype=np.int64)
        codec = get_codec(name)
        with scalar_reference_mode(enabled=scalar):
            compressed = codec.compress(values)
            np.testing.assert_array_equal(codec.decompress(compressed), values)
        if name == "ns":
            assert compressed.meta["width"] == 8

    @pytest.mark.parametrize(
        "source",
        [
            lambda: [smart_grid.generate(20_000, seed=4)],
            lambda: [linear_road.generate(20_000, seed=4)],
            lambda: [cluster_monitoring.generate(20_000, seed=4)],
            lambda: [
                {f.name: b.column(f.name) for f in b.schema}
                for b in smart_grid.dynamic_workload(
                    batch_size=4096, batches=12, batches_per_phase=4, seed=4
                )
            ],
        ],
        ids=["smart_grid", "linear_road", "cluster_monitoring", "dynamic_workload"],
    )
    def test_dataset_batches(self, source):
        for columns in source():
            for name, values in columns.items():
                got = ColumnStats.from_values(values, size_c=4)
                assert got == reference_stats(values, size_c=4), name


class TestColumnStats:
    def test_basic_fields(self):
        values = np.array([3, 3, 3, 10, 10, 255], dtype=np.int64)
        st = ColumnStats.from_values(values, size_c=4)
        assert st.n == 6
        assert st.size_c == 4
        assert (st.min_value, st.max_value) == (3, 255)
        assert st.kindnum == 3
        assert st.avg_run_length == 2.0
        assert st.value_domain_max == 1
        assert st.value_domain_sum == 6

    def test_default_size_c_is_8(self):
        st = ColumnStats.from_values(np.array([1]))
        assert st.size_c == 8

    def test_rejects_empty(self):
        with pytest.raises(CodecError):
            ColumnStats.from_values(np.zeros(0, dtype=np.int64))

    def test_eg_domain(self):
        # max 254 -> gamma(255) is 15 bits -> 2 bytes
        st = ColumnStats.from_values(np.array([0, 254]))
        assert st.eg_domain_bytes == 2

    def test_ed_domain(self):
        # max 254 -> delta(255) is 14 bits -> 2 bytes
        st = ColumnStats.from_values(np.array([0, 254]))
        assert st.ed_domain_bytes == 2

    def test_elias_domains_reject_negatives(self):
        st = ColumnStats.from_values(np.array([-1, 5]))
        assert not st.all_positive_domain
        with pytest.raises(CodecError):
            _ = st.eg_domain_bytes
        with pytest.raises(CodecError):
            _ = st.ed_domain_bytes

    def test_ns_width_is_max_value_domain(self):
        st = ColumnStats.from_values(np.array([1, 300, 5]))
        assert st.ns_width == 2

    def test_bd_domain_uses_spread_not_magnitude(self):
        st = ColumnStats.from_values(np.array([1_000_000, 1_000_050]))
        assert st.bd_domain_bytes == 1

    @pytest.mark.parametrize(
        "kindnum,expected",
        [(1, 1), (2, 1), (255, 1), (256, 1), (257, 2), (65536, 2), (65537, 3)],
    )
    def test_dict_code_bytes(self, kindnum, expected):
        st = ColumnStats.from_values(np.arange(max(kindnum, 1)))
        assert st.kindnum == max(kindnum, 1)
        assert st.dict_code_bytes == expected

    @pytest.mark.parametrize(
        "kindnum,expected", [(1, 1), (2, 2), (3, 4), (4, 4), (5, 8), (8, 8), (9, 16)]
    )
    def test_bitmap_bits_per_element(self, kindnum, expected):
        st = ColumnStats.from_values(np.arange(kindnum))
        assert st.bitmap_bits_per_element == expected

    def test_width_histogram_sums_to_n(self):
        values = np.array([1, 300, 70000, -5], dtype=np.int64)
        st = ColumnStats.from_values(values)
        assert sum(st.width_histogram) == st.n
