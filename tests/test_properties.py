"""Property-based tests (hypothesis) on core invariants.

Covers: codec roundtrips over arbitrary integer columns, order/equality
preservation of direct codes, packing, window scheduling conservation, and
quantization losslessness.
"""

import bisect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import get_codec
from repro.compression.bitstream import delta_codeword_ints, delta_codeword_invert
from repro.errors import CodecNotApplicable
from repro.stream.quantize import dequantize, quantize
from repro.stream.window import TimeWindowScheduler, WindowScheduler, WindowSpec
from repro.types import pack_int_array, unpack_int_array

# columns of arbitrary int64 values (bounded to keep codecs applicable)
int_columns = st.lists(
    st.integers(min_value=-(1 << 40), max_value=1 << 40), min_size=1, max_size=200
).map(lambda xs: np.asarray(xs, dtype=np.int64))

nonneg_columns = st.lists(
    st.integers(min_value=0, max_value=(1 << 31) - 2), min_size=1, max_size=200
).map(lambda xs: np.asarray(xs, dtype=np.int64))


def _roundtrip(codec_name, values):
    codec = get_codec(codec_name)
    try:
        cc = codec.compress(values)
    except CodecNotApplicable:
        return  # hypothesis found an inapplicable column: fine
    np.testing.assert_array_equal(codec.decompress(cc), values)


@settings(max_examples=60, deadline=None)
@given(values=int_columns)
@pytest.mark.parametrize(
    "codec_name",
    ["identity", "ns", "nsv", "bd", "rle", "dict", "bitmap", "gzip"],
)
def test_roundtrip_any_ints(codec_name, values):
    _roundtrip(codec_name, values)


@settings(max_examples=60, deadline=None)
@given(values=nonneg_columns)
@pytest.mark.parametrize("codec_name", ["eg", "ed"])
def test_roundtrip_nonneg(codec_name, values):
    _roundtrip(codec_name, values)


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.integers(min_value=0, max_value=1 << 28), min_size=2, max_size=100
    )
)
@pytest.mark.parametrize("codec_name", ["ns", "bd", "dict", "ed", "eg"])
def test_direct_codes_preserve_order(codec_name, values):
    values = np.asarray(values, dtype=np.int64)
    codec = get_codec(codec_name)
    cc = codec.compress(values)
    codes = codec.direct_codes(cc)
    lt_values = values[:, None] < values[None, :]
    lt_codes = codes[:, None] < codes[None, :]
    assert (lt_values == lt_codes).all()


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.integers(min_value=1, max_value=(1 << 52) - 1), min_size=1, max_size=64
    )
)
def test_delta_codeword_bijection(values):
    arr = np.asarray(values, dtype=np.int64)
    codes, _ = delta_codeword_ints(arr)
    np.testing.assert_array_equal(delta_codeword_invert(codes), arr)


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=50),
    width=st.integers(min_value=1, max_value=8),
)
def test_packing_roundtrip_property(values, width):
    arr = np.asarray(values, dtype=np.int64)
    packed = pack_int_array(arr, width)
    np.testing.assert_array_equal(unpack_int_array(packed, width, arr.size), arr)
    assert packed.size == arr.size * width


@settings(max_examples=60, deadline=None)
@given(
    size=st.integers(min_value=1, max_value=50),
    slide=st.integers(min_value=1, max_value=60),
    batch_sizes=st.lists(
        st.integers(min_value=0, max_value=120), min_size=1, max_size=12
    ),
)
def test_window_scheduler_matches_oracle(size, slide, batch_sizes):
    """Feeding batch-by-batch must produce exactly the windows a single
    whole-stream pass would, with consistent merged coordinates."""
    scheduler = WindowScheduler(WindowSpec.count(size, slide))
    total = sum(batch_sizes)
    expected = np.arange(0, max(total - size + 1, 0), slide)

    starts, ends = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    consumed = 0  # global index of the end of the merged batch
    for n in batch_sizes:
        layout = scheduler.feed(n)
        merged_origin = consumed - layout.carry
        assert layout.starts.dtype == layout.ends.dtype == np.int64
        starts.append(merged_origin + layout.starts)
        ends.append(merged_origin + layout.ends)
        consumed += n
        # retained tail + skip bookkeeping must never lose tuples
        assert 0 <= layout.retain_start <= layout.carry + n
    np.testing.assert_array_equal(np.concatenate(starts), expected)
    np.testing.assert_array_equal(np.concatenate(ends), expected + size)


def _closed_time_windows(ts, size, slide):
    """Whole-stream reference: the (lo, hi) index extents of every
    non-empty window ``[t0 + k*slide, t0 + k*slide + size)`` that the
    stream's last timestamp closes."""
    extents = []
    if not ts:
        return extents
    k = 0
    while ts[0] + k * slide + size <= ts[-1]:
        start = ts[0] + k * slide
        lo = bisect.bisect_left(ts, start)
        hi = bisect.bisect_left(ts, start + size)
        if hi > lo:
            extents.append((lo, hi))
        k += 1
    return extents


@settings(max_examples=80, deadline=None)
@given(
    size=st.integers(min_value=1, max_value=30),
    slide=st.integers(min_value=1, max_value=40),
    # 0 repeats a timestamp; up to 120 jumps past size + slide
    gaps=st.lists(
        st.integers(min_value=0, max_value=3) | st.integers(min_value=0, max_value=120),
        max_size=120,
    ),
    cuts=st.lists(st.integers(min_value=0, max_value=120), max_size=8),
)
def test_time_window_scheduler_matches_oracle(size, slide, gaps, cuts):
    """Time-window twin: feeding tail + new timestamps batch by batch
    yields exactly the whole-stream windows; repeated cuts feed no new
    tuples."""
    ts = np.cumsum(np.asarray(gaps, dtype=np.int64))
    scheduler = TimeWindowScheduler(WindowSpec.time(size, slide))
    produced = []
    fed = 0  # global index of the end of the merged batch
    for cut in sorted(min(c, ts.size) for c in cuts) + [ts.size]:
        merged_origin = fed - scheduler.pending
        layout = scheduler.feed(ts[merged_origin:cut])
        assert layout.carry == fed - merged_origin
        assert layout.starts.dtype == layout.ends.dtype == np.int64
        assert (np.diff(layout.starts) >= 0).all()
        assert (np.diff(layout.ends) >= 0).all()
        produced += zip(
            (merged_origin + layout.starts).tolist(),
            (merged_origin + layout.ends).tolist(),
        )
        assert 0 <= layout.retain_start <= cut - merged_origin
        fed = cut
    assert produced == _closed_time_windows(ts.tolist(), size, slide)


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=50,
    ),
    decimals=st.integers(min_value=0, max_value=4),
)
def test_quantize_roundtrip(values, decimals):
    arr = np.round(np.asarray(values, dtype=np.float64), decimals)
    stored = quantize(arr, decimals)
    np.testing.assert_allclose(
        dequantize(stored, decimals), arr, atol=10.0 ** (-decimals) / 2
    )


@settings(max_examples=40, deadline=None)
@given(values=int_columns)
def test_compressed_nbytes_accounting(values):
    """ratio * nbytes must reconstruct the uncompressed size exactly."""
    for name in ("ns", "bd", "dict"):
        codec = get_codec(name)
        cc = codec.compress(values)
        assert cc.ratio == pytest.approx((values.size * 8) / cc.nbytes)
