"""Bit-level Elias Gamma / Delta reference coders.

The pipeline itself transmits the paper's *aligned* format (every codeword
padded to the column-wide maximum codeword width, Sec. V-B), which keeps the
compressed column structured and queryable.  The classic unaligned
bitstream coders here serve two purposes: they are the ground truth for the
codeword-length math used by ``EGDomain``/``EDDomain``, and they implement
the actual variable-length wire format for anyone who wants maximum
compression at the cost of decompression (β = 1 usage).
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from ..errors import CodecError


class BitWriter:
    """Append-only MSB-first bit buffer."""

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._acc = 0
        self._nbits = 0

    def write(self, value: int, nbits: int) -> None:
        """Append the ``nbits`` low bits of ``value`` (MSB first)."""
        if nbits < 0:
            raise CodecError("cannot write a negative number of bits")
        if nbits == 0:
            return
        if value < 0 or value >= (1 << nbits):
            raise CodecError(f"value {value} does not fit in {nbits} bits")
        self._acc = (self._acc << nbits) | value
        self._nbits += nbits
        while self._nbits >= 8:
            self._nbits -= 8
            self._bytes.append((self._acc >> self._nbits) & 0xFF)
        self._acc &= (1 << self._nbits) - 1

    def write_unary(self, count: int) -> None:
        """Append ``count`` zero bits followed by a one bit.

        Long zero runs extend the byte buffer directly: flushing to byte
        alignment first keeps the accumulator empty, so the run costs
        O(count / 8) appends instead of re-masking the accumulator for
        every 32-bit chunk.
        """
        if count < 0:
            raise CodecError("cannot write a negative number of bits")
        align = (8 - self._nbits) % 8
        if count >= align + 8:
            self.write(0, align)
            count -= align
            self._bytes.extend(b"\x00" * (count // 8))
            count %= 8
        self.write(1, count + 1)

    @property
    def bit_length(self) -> int:
        return len(self._bytes) * 8 + self._nbits

    def getvalue(self) -> bytes:
        """Finish the stream, zero-padding the final byte."""
        out = bytearray(self._bytes)
        if self._nbits:
            out.append((self._acc << (8 - self._nbits)) & 0xFF)
        return bytes(out)


class BitReader:
    """MSB-first reader over bytes produced by :class:`BitWriter`."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0  # absolute bit position

    def read(self, nbits: int) -> int:
        if nbits < 0:
            raise CodecError("cannot read a negative number of bits")
        end = self._pos + nbits
        if end > len(self._data) * 8:
            raise CodecError("bitstream exhausted")
        value = 0
        pos = self._pos
        while nbits > 0:
            byte = self._data[pos // 8]
            avail = 8 - (pos % 8)
            take = min(avail, nbits)
            shift = avail - take
            value = (value << take) | ((byte >> shift) & ((1 << take) - 1))
            pos += take
            nbits -= take
        self._pos = pos
        return value

    def read_unary(self) -> int:
        """Count zero bits up to and including the terminating one bit."""
        count = 0
        while True:
            bit = self.read(1)
            if bit == 1:
                return count
            count += 1


def _as_int64_stream(values: Iterable[int]) -> np.ndarray:
    if isinstance(values, np.ndarray):
        return np.asarray(values, dtype=np.int64)
    try:
        return np.array([int(v) for v in values], dtype=np.int64)
    except OverflowError as exc:
        raise CodecError("bitstream values must fit in int64") from exc


def gamma_encode_stream(values: Iterable[int]) -> bytes:
    """Classic Elias Gamma bitstream of positive integers.

    Dispatches to the batch bit-scattering kernel (or, under
    :func:`.kernels.scalar_reference_mode`, the :class:`BitWriter` loop).
    """
    from .kernels import gamma_stream_encode

    return gamma_stream_encode(_as_int64_stream(values))


def gamma_decode_stream(data: bytes, count: int) -> np.ndarray:
    """Decode ``count`` Elias Gamma codewords."""
    from .kernels import gamma_stream_decode

    return gamma_stream_decode(bytes(data), count)


def delta_encode_stream(values: Iterable[int]) -> bytes:
    """Classic Elias Delta bitstream of positive integers.

    Dispatches like :func:`gamma_encode_stream`.
    """
    from .kernels import delta_stream_encode

    return delta_stream_encode(_as_int64_stream(values))


def delta_decode_stream(data: bytes, count: int) -> np.ndarray:
    """Decode ``count`` Elias Delta codewords."""
    from .kernels import delta_stream_decode

    return delta_stream_decode(bytes(data), count)


def gamma_codeword_ints(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(codeword integers, codeword bit lengths) for Elias Gamma.

    A gamma codeword read as an integer equals the encoded value itself
    (the unary prefix contributes only leading zeros); this identity is what
    makes the aligned format directly processable.
    """
    values = np.asarray(values, dtype=np.int64)
    if values.size and values.min() < 1:
        raise CodecError("Elias Gamma encodes positive integers only")
    n = _floor_log2(values)
    return values.copy(), 2 * n + 1


def delta_codeword_ints(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(codeword integers, codeword bit lengths) for Elias Delta.

    The codeword of x with n = floor(log2 x) is gamma(n+1) followed by the
    n low bits of x; as an integer that is ``x + n * 2**n``, a strictly
    increasing (order-preserving) but non-affine map.
    """
    values = np.asarray(values, dtype=np.int64)
    if values.size and values.min() < 1:
        raise CodecError("Elias Delta encodes positive integers only")
    if values.size and values.max() >= (1 << 56):
        # code(x) = x + n * 2^n must stay within int64.
        raise CodecError("aligned Elias Delta supports values below 2^56")
    n = _floor_log2(values)
    codes = values + n * (np.int64(1) << n)
    length = n + 1
    ln = _floor_log2(length)
    bits = (2 * ln + 1) + n
    return codes, bits


def delta_codeword_invert(codes: np.ndarray) -> np.ndarray:
    """Invert :func:`delta_codeword_ints` (vectorized via range search)."""
    codes = np.asarray(codes, dtype=np.int64)
    # Codes for values with floor(log2 x) == n live in
    # [(n+1) * 2^n, (n+2) * 2^n - 1]; starts are strictly increasing in n.
    starts = np.array([(n + 1) << n for n in range(58)], dtype=np.int64)
    n = np.searchsorted(starts, codes, side="right").astype(np.int64) - 1
    if codes.size and (n < 0).any():
        raise CodecError("invalid Elias Delta codeword")
    return codes - n * (np.int64(1) << n)


def _floor_log2(values: np.ndarray) -> np.ndarray:
    """Vectorized floor(log2 v) for positive int64 values."""
    if values.size == 0:
        return np.zeros(0, dtype=np.int64)
    out = np.floor(np.log2(values.astype(np.float64))).astype(np.int64)
    # Repair float imprecision at exact powers of two near 2^52+.
    hi = values >= (np.int64(1) << 52)
    if hi.any():
        out[hi] = [int(v).bit_length() - 1 for v in values[hi]]
    # log2 may round up at v = 2^k - 1 for large k; verify and fix.
    too_big = (np.int64(1) << np.minimum(out, 62)) > values
    out[too_big] -= 1
    return out
