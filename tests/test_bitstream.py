"""Unit tests for the bit-level Elias coders and the stream kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.bitstream import (
    BitReader,
    BitWriter,
    delta_codeword_ints,
    delta_codeword_invert,
    gamma_codeword_ints,
)
from repro.compression.kernels import (
    delta_stream_decode,
    delta_stream_encode,
    gamma_stream_decode,
    gamma_stream_encode,
)
from repro.errors import CodecError
from repro.stats import elias_delta_bits, elias_gamma_bits


class TestBitWriterReader:
    def test_write_read_roundtrip(self):
        w = BitWriter()
        w.write(0b101, 3)
        w.write(0b1, 1)
        w.write(0xABCD, 16)
        data = w.getvalue()
        r = BitReader(data)
        assert r.read(3) == 0b101
        assert r.read(1) == 0b1
        assert r.read(16) == 0xABCD

    def test_unary_roundtrip(self):
        w = BitWriter()
        for count in (0, 1, 7, 31, 40, 100):
            w.write_unary(count)
        r = BitReader(w.getvalue())
        for count in (0, 1, 7, 31, 40, 100):
            assert r.read_unary() == count

    def test_write_rejects_overflow(self):
        w = BitWriter()
        with pytest.raises(CodecError):
            w.write(4, 2)
        with pytest.raises(CodecError):
            w.write(-1, 3)

    def test_read_past_end(self):
        r = BitReader(b"\x00")
        r.read(8)
        with pytest.raises(CodecError):
            r.read(1)

    def test_bit_length_tracks_writes(self):
        w = BitWriter()
        w.write(1, 1)
        w.write(0, 13)
        assert w.bit_length == 14


class TestGammaStream:
    def test_known_codewords(self):
        # gamma(1)=1, gamma(2)=010, gamma(3)=011 -> bits 1 010 011 0(pad)
        data = gamma_stream_encode([1, 2, 3])
        assert data == bytes([0b10100110])

    def test_roundtrip(self, rng):
        values = rng.integers(1, 1 << 20, size=300)
        data = gamma_stream_encode(values)
        np.testing.assert_array_equal(gamma_stream_decode(data, 300), values)

    def test_stream_length_matches_bit_math(self):
        values = [1, 2, 5, 100, 65535]
        data = gamma_stream_encode(values)
        bits = sum(elias_gamma_bits(v) for v in values)
        assert len(data) == (bits + 7) // 8

    def test_rejects_nonpositive(self):
        with pytest.raises(CodecError):
            gamma_stream_encode([0])


class TestDeltaStream:
    def test_known_codewords(self):
        # delta(1) = "1"
        assert delta_stream_encode([1]) == bytes([0b10000000])

    def test_roundtrip(self, rng):
        values = rng.integers(1, 1 << 30, size=300)
        data = delta_stream_encode(values)
        np.testing.assert_array_equal(delta_stream_decode(data, 300), values)

    def test_stream_length_matches_bit_math(self):
        values = [1, 2, 16, 255, 1 << 20]
        data = delta_stream_encode(values)
        bits = sum(elias_delta_bits(v) for v in values)
        assert len(data) == (bits + 7) // 8

    def test_rejects_nonpositive(self):
        with pytest.raises(CodecError):
            delta_stream_encode([-1])


class TestCodewordInts:
    def test_gamma_codeword_int_equals_value(self, rng):
        values = rng.integers(1, 1 << 31, size=200)
        codes, bits = gamma_codeword_ints(values)
        np.testing.assert_array_equal(codes, values)
        expected_bits = [elias_gamma_bits(int(v)) for v in values]
        np.testing.assert_array_equal(bits, expected_bits)

    def test_delta_codeword_bits_match_reference(self, rng):
        values = rng.integers(1, 1 << 40, size=200)
        _, bits = delta_codeword_ints(values)
        expected = [elias_delta_bits(int(v)) for v in values]
        np.testing.assert_array_equal(bits, expected)

    def test_delta_codewords_invert(self, rng):
        values = rng.integers(1, 1 << 50, size=500)
        codes, _ = delta_codeword_ints(values)
        np.testing.assert_array_equal(delta_codeword_invert(codes), values)

    def test_delta_codewords_are_strictly_increasing(self):
        values = np.arange(1, 5000, dtype=np.int64)
        codes, _ = delta_codeword_ints(values)
        assert (np.diff(codes) > 0).all()

    def test_delta_boundaries(self):
        # around every power of two the order and inversion must hold
        points = []
        for k in range(1, 50):
            points.extend([(1 << k) - 1, 1 << k, (1 << k) + 1])
        values = np.asarray(points, dtype=np.int64)
        codes, _ = delta_codeword_ints(values)
        np.testing.assert_array_equal(delta_codeword_invert(codes), values)

    def test_delta_rejects_huge(self):
        with pytest.raises(CodecError):
            delta_codeword_ints(np.array([1 << 57], dtype=np.int64))

    def test_invert_rejects_invalid_code(self):
        with pytest.raises(CodecError):
            delta_codeword_invert(np.array([0], dtype=np.int64))


# ----- hypothesis properties -------------------------------------------


_field = st.integers(min_value=1, max_value=64).flatmap(
    lambda nbits: st.tuples(
        st.just(nbits), st.integers(min_value=0, max_value=(1 << nbits) - 1)
    )
)
_op = st.one_of(
    _field.map(lambda f: ("write",) + f),
    st.integers(min_value=0, max_value=200).map(lambda c: ("unary", c)),
)


class TestBitstreamProperties:
    @given(st.lists(_field, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_width_write_read_roundtrip(self, fields):
        w = BitWriter()
        for nbits, value in fields:
            w.write(value, nbits)
        assert w.bit_length == sum(nbits for nbits, _ in fields)
        data = w.getvalue()
        assert len(data) == (w.bit_length + 7) // 8
        r = BitReader(data)
        for nbits, value in fields:
            assert r.read(nbits) == value

    @given(st.lists(_op, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_interleaved_unary_and_fixed_width(self, ops):
        w = BitWriter()
        for op in ops:
            if op[0] == "write":
                w.write(op[2], op[1])
            else:
                w.write_unary(op[1])
        r = BitReader(w.getvalue())
        for op in ops:
            if op[0] == "write":
                assert r.read(op[1]) == op[2]
            else:
                assert r.read_unary() == op[1]

    @given(st.lists(st.integers(min_value=1, max_value=1 << 40), max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_gamma_stream_roundtrip(self, values):
        data = gamma_stream_encode(values)
        np.testing.assert_array_equal(
            gamma_stream_decode(data, len(values)), values
        )

    @given(st.lists(st.integers(min_value=1, max_value=(1 << 56) - 1), max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_delta_stream_roundtrip(self, values):
        data = delta_stream_encode(values)
        np.testing.assert_array_equal(
            delta_stream_decode(data, len(values)), values
        )

    @given(st.lists(st.integers(min_value=1, max_value=(1 << 56) - 1), max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_delta_codeword_ints_invert_and_preserve_order(self, values):
        arr = np.asarray(values, dtype=np.int64)
        codes, bits = delta_codeword_ints(arr)
        np.testing.assert_array_equal(delta_codeword_invert(codes), arr)
        assert (bits >= 1).all()
        # the integer codeword map must preserve value order (Sec. V claim
        # that ED supports order predicates directly on codes)
        order = np.argsort(arr, kind="stable")
        assert (np.diff(arr[order]) > 0).all() == (
            np.diff(codes[order]) > 0
        ).all()

    @pytest.mark.slow
    @given(
        st.lists(
            st.integers(min_value=1, max_value=(1 << 56) - 1),
            min_size=1,
            max_size=300,
        )
    )
    @settings(max_examples=500, deadline=None)
    def test_delta_stream_roundtrip_deep(self, values):
        data = delta_stream_encode(values)
        np.testing.assert_array_equal(
            delta_stream_decode(data, len(values)), values
        )
