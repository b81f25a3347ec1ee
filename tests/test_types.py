"""Unit tests for exact-width integer packing and width math."""

import numpy as np
import pytest

from repro.compression import kernels
from repro.errors import CodecError
from repro.types import (
    NUMPY_WIDTHS,
    bytes_for_range,
    bytes_for_signed,
    bytes_for_unsigned,
    narrow_int_array,
    numpy_width,
    pack_int_array,
    unpack_int_array,
    unsigned_dtype,
)


class TestNumpyWidth:
    @pytest.mark.parametrize(
        "width,expected",
        [(1, 1), (2, 2), (3, 4), (4, 4), (5, 8), (6, 8), (7, 8), (8, 8)],
    )
    def test_rounds_up(self, width, expected):
        assert numpy_width(width) == expected

    @pytest.mark.parametrize("bad", [0, -1, 9, 100])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(CodecError):
            numpy_width(bad)

    def test_dtype_helpers_match_width(self):
        for w in NUMPY_WIDTHS:
            assert unsigned_dtype(w).itemsize == w


class TestByteWidths:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0, 1),
            (1, 1),
            (255, 1),
            (256, 2),
            (65535, 2),
            (65536, 3),
            (1 << 31, 4),
            ((1 << 56) - 1, 7),
            (1 << 62, 8),
        ],
    )
    def test_unsigned(self, value, expected):
        assert bytes_for_unsigned(value) == expected

    @pytest.mark.parametrize(
        "lo,hi,expected",
        [
            (0, 127, 1),
            (-128, 127, 1),
            (-129, 0, 2),
            (0, 128, 2),
            (-32768, 32767, 2),
            (0, 1 << 31, 5),
            (-(1 << 31), (1 << 31) - 1, 4),
        ],
    )
    def test_signed(self, lo, hi, expected):
        assert bytes_for_signed(lo, hi) == expected

    def test_range_dispatches_on_sign(self):
        assert bytes_for_range(0, 255) == 1       # unsigned fit
        assert bytes_for_range(-1, 255) == 2      # needs sign bit


class TestPacking:
    @pytest.mark.parametrize("width", range(1, 9))
    def test_unsigned_roundtrip(self, width, rng):
        hi = (1 << (8 * width)) - 1 if width < 8 else (1 << 62)
        values = rng.integers(0, hi, size=257, dtype=np.int64)
        packed = pack_int_array(values, width)
        assert packed.size == 257 * width
        out = unpack_int_array(packed, width, 257)
        np.testing.assert_array_equal(out, values)

    @pytest.mark.parametrize("width", range(1, 9))
    def test_signed_roundtrip(self, width, rng):
        bound = 1 << (8 * width - 1)
        lo = -bound
        hi = bound - 1 if width < 8 else (1 << 62)
        values = rng.integers(lo, hi, size=257, dtype=np.int64)
        packed = pack_int_array(values, width, signed=True)
        out = unpack_int_array(packed, width, 257, signed=True)
        np.testing.assert_array_equal(out, values)

    def test_signed_boundaries_roundtrip(self):
        values = np.array([-128, -1, 0, 1, 127], dtype=np.int64)
        packed = pack_int_array(values, 1, signed=True)
        np.testing.assert_array_equal(
            unpack_int_array(packed, 1, 5, signed=True), values
        )

    def test_unsigned_overflow_rejected(self):
        with pytest.raises(CodecError):
            pack_int_array(np.array([256], dtype=np.int64), 1)

    def test_negative_rejected_in_unsigned_mode(self):
        with pytest.raises(CodecError):
            pack_int_array(np.array([-1], dtype=np.int64), 2)

    def test_signed_overflow_rejected(self):
        with pytest.raises(CodecError):
            pack_int_array(np.array([128], dtype=np.int64), 1, signed=True)
        with pytest.raises(CodecError):
            pack_int_array(np.array([-129], dtype=np.int64), 1, signed=True)

    def test_unpack_validates_payload_size(self):
        with pytest.raises(CodecError):
            unpack_int_array(np.zeros(5, dtype=np.uint8), 2, 3)

    def test_width8_is_raw_view(self):
        values = np.array([-(1 << 60), 0, 1 << 60], dtype=np.int64)
        packed = pack_int_array(values, 8, signed=True)
        np.testing.assert_array_equal(
            unpack_int_array(packed, 8, 3, signed=True), values
        )

    def test_pack_empty(self):
        packed = pack_int_array(np.zeros(0, dtype=np.int64), 3)
        assert packed.size == 0
        assert unpack_int_array(packed, 3, 0).size == 0

    def test_pack_does_not_mutate_input(self):
        values = np.array([1, 2, 3], dtype=np.int64)
        copy = values.copy()
        pack_int_array(values, 2)
        np.testing.assert_array_equal(values, copy)


def _range_ends(width, signed):
    """Each end of a width's range, its neighbours and zero."""
    if signed:
        lo, hi = -(1 << (8 * width - 1)), (1 << (8 * width - 1)) - 1
    else:
        lo, hi = 0, min((1 << (8 * width)) - 1, (1 << 63) - 1)
    return [lo, lo + 1, 0, hi - 1, hi]


class TestEveryWidth:
    """Widths without a NumPy dtype (3, 5, 6, 7) pack through overlapping
    words; every width must equal the per-value reference byte for byte in
    both dispatch modes, at the ends of its range and across the steps the
    packer works in."""

    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("width", range(1, 9))
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 40_000])
    def test_range_ends_in_both_modes(self, width, signed, n, rng):
        ends = _range_ends(width, signed)
        values = np.resize(np.array(ends, dtype=np.int64), n)
        if n > 5:
            values[5:] = rng.integers(ends[0], ends[-1], n - 5, endpoint=True)
        packed = kernels.pack_ints(values, width, signed=signed)
        with kernels.scalar_reference_mode():
            reference = kernels.pack_ints(values, width, signed=signed)
            back_ref = kernels.unpack_ints(reference, width, n, signed=signed)
        assert packed.dtype == np.uint8 and bytes(packed) == bytes(reference)
        back = kernels.unpack_ints(packed, width, n, signed=signed)
        assert back.dtype == np.int64
        np.testing.assert_array_equal(back, values)
        np.testing.assert_array_equal(back, back_ref)

    @pytest.mark.parametrize("width", [3, 5, 6, 7])
    @pytest.mark.parametrize(
        "dtype", [np.uint8, np.uint16, np.int32, np.uint32, np.int64, np.uint64]
    )
    def test_narrow_takes_any_integer_dtype(self, width, dtype, rng):
        info = np.iinfo(dtype)
        top = min(int(info.max), (1 << (8 * width - 1)) - 1)
        values = rng.integers(max(int(info.min), -top), top, 20_000, endpoint=True)
        typed = values.astype(dtype)
        want = pack_int_array(values, width, signed=bool(values.min() < 0))
        assert bytes(narrow_int_array(typed, width)) == bytes(want)
        # the input is read, never written
        np.testing.assert_array_equal(typed, values.astype(dtype))

    @pytest.mark.parametrize("width", [3, 5, 6, 7])
    def test_unpack_reads_only_its_payload(self, width):
        # the payload is a slice: bytes around it must not leak in
        whole = np.full(3 * width + 16, 0xAB, dtype=np.uint8)
        payload = whole[8 : 8 + 3 * width]
        payload[:] = pack_int_array(np.array([1, 2, 3]), width)
        assert unpack_int_array(payload, width, 3).tolist() == [1, 2, 3]

    @pytest.mark.parametrize("width", [0, 9, -3])
    def test_unpack_rejects_impossible_widths(self, width):
        with pytest.raises(CodecError):
            unpack_int_array(np.zeros(0, dtype=np.uint8), width, 0)


class TestRangeCheck:
    """``pack_int_array`` rejects exactly the values past its width's range:
    the last value inside each end packs, the first one outside raises."""

    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("width", range(1, 8))
    def test_bounds_in_both_modes(self, width, signed):
        if signed:
            lo, hi = -(1 << (8 * width - 1)), (1 << (8 * width - 1)) - 1
        else:
            lo, hi = 0, (1 << (8 * width)) - 1
        inside = np.array([lo, 0, hi], dtype=np.int64)
        packed = pack_int_array(inside, width, signed=signed)
        np.testing.assert_array_equal(
            unpack_int_array(packed, width, 3, signed=signed), inside
        )
        for outside in (lo - 1, hi + 1):
            values = np.array([0, outside, 0], dtype=np.int64)
            with pytest.raises(CodecError, match="out of range"):
                pack_int_array(values, width, signed=signed)

    @pytest.mark.parametrize("width", [0, 9])
    def test_impossible_widths(self, width):
        for values in (np.zeros(0, dtype=np.int64), np.ones(3, dtype=np.int64)):
            with pytest.raises(CodecError):
                pack_int_array(values, width)
