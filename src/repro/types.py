"""Shared low-level helpers: exact-width integer packing and bit math.

CompressStreamDB stores compressed columns at *exact* byte widths (1..8
bytes per element) so that space accounting matches the paper's formulas,
while query kernels materialize the next NumPy-supported width for
vectorized scans.  The packing helpers here are used by the Null
Suppression, Dictionary, Base-Delta and aligned Elias codecs.
"""

from __future__ import annotations

import numpy as np

from .errors import CodecError

#: Byte widths NumPy can represent natively as integer dtypes.
NUMPY_WIDTHS = (1, 2, 4, 8)

_UNSIGNED_BY_WIDTH = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


def numpy_width(width: int) -> int:
    """Round an exact byte width up to the nearest NumPy-supported width."""
    if not 1 <= width <= 8:
        raise CodecError(f"byte width must be in [1, 8], got {width}")
    for w in NUMPY_WIDTHS:
        if w >= width:
            return w
    raise CodecError(f"unsupported byte width {width}")  # pragma: no cover


def unsigned_dtype(width: int) -> np.dtype:
    """Unsigned NumPy dtype able to hold ``width`` bytes."""
    return np.dtype(_UNSIGNED_BY_WIDTH[numpy_width(width)])


def bit_length(value: int) -> int:
    """Number of significant bits of a non-negative integer (0 -> 1)."""
    if value < 0:
        raise CodecError("bit_length expects a non-negative value")
    return max(int(value).bit_length(), 1)


def bytes_for_unsigned(max_value: int) -> int:
    """Minimum bytes needed to store a non-negative integer."""
    return (bit_length(int(max_value)) + 7) // 8


def bytes_for_signed(min_value: int, max_value: int) -> int:
    """Minimum bytes storing all of [min_value, max_value] in two's complement."""
    lo, hi = int(min_value), int(max_value)
    for width in range(1, 9):
        bound = 1 << (8 * width - 1)
        if -bound <= lo and hi < bound:
            return width
    raise CodecError(f"range [{min_value}, {max_value}] exceeds 8 bytes")


def bytes_for_range(min_value: int, max_value: int) -> int:
    """Minimum bytes for a column whose values span [min_value, max_value].

    Non-negative columns use the unsigned representation (classic leading
    zero suppression); columns with negatives use two's-complement
    narrowing, which preserves numeric values under sign extension.
    """
    if min_value >= 0:
        return bytes_for_unsigned(max_value)
    return bytes_for_signed(min_value, max_value)


#: Words narrowed per step at widths 3, 5, 6 and 7, in bytes: the step's
#: temporaries stay cache-sized and below the allocator's fresh-mapping size.
_NARROW_STEP_BYTES = 1 << 16


def _little_endian(width: int, signed: bool) -> np.dtype:
    """Explicit little-endian integer dtype of a NumPy width (``<u2``, ``<i4``...)."""
    return np.dtype(f"<{'i' if signed else 'u'}{width}")


def pack_int_array(
    values: np.ndarray, width: int, *, signed: bool = False
) -> np.ndarray:
    """Pack an int64 array into exactly ``width`` little-endian bytes/elem.

    Returns a ``uint8`` array of length ``len(values) * width``.  Signed
    packing truncates the two's-complement representation; values must fit
    in ``width`` bytes or a :class:`CodecError` is raised.
    """
    values = np.ascontiguousarray(values, dtype=np.int64)
    if width == 8:
        return values.view(np.uint8).copy()
    numpy_width(width)  # a CodecError for widths outside [1, 8]
    if values.size:
        # one min/max pair, no n-long comparison masks
        bits = 8 * width - 1 if signed else 8 * width
        lo = -(1 << bits) if signed else 0
        if int(values.min()) < lo or int(values.max()) >= 1 << bits:
            raise CodecError(f"value out of range for {width}-byte packing")
    return narrow_int_array(values if signed else values.view(np.uint64), width)


def narrow_int_array(values: np.ndarray, width: int) -> np.ndarray:
    """:func:`pack_int_array` without its range check, for values of any
    integer dtype already proven to fit ``width`` bytes.  The low bytes are
    kept, so one unsigned cast serves signed values too."""
    values = np.ascontiguousarray(values)
    word = _little_endian(numpy_width(width), False)
    if width in NUMPY_WIDTHS:
        return values.astype(word, copy=False).view(np.uint8)
    # Widths 3, 5, 6 and 7: one word of the next NumPy width per element,
    # written ``width`` bytes apart.  Word i carries element i + 1's low
    # bytes above element i's, so overlapping words agree on every byte
    # they share and the write order does not matter.
    n = values.size
    bits = 8 * width
    mask = word.type((1 << bits) - 1)
    step = _NARROW_STEP_BYTES // word.itemsize
    out = np.empty(n * width + word.itemsize - width, dtype=np.uint8)
    for lo in range(0, n, step):
        low = values[lo : lo + step + 1].astype(word, copy=False)
        if values.dtype.kind == "i":
            low &= mask  # a copy: the cast changed the kind
        words = low[1:] << bits
        words |= low[:-1]
        np.copyto(_strided_words(out[lo * width :], word, words.size, width), words)
    if n:
        last = values[-1:].astype(word) & mask
        np.copyto(_strided_words(out[(n - 1) * width :], word, 1, width), last)
    return out[: n * width]


def unpack_int_array(
    payload: np.ndarray, width: int, count: int, *, signed: bool = False
) -> np.ndarray:
    """Inverse of :func:`pack_int_array`; returns an int64 array."""
    numpy_width(width)
    payload = np.ascontiguousarray(payload, dtype=np.uint8)
    if payload.size != count * width:
        raise CodecError(
            f"payload has {payload.size} bytes, expected {count * width} "
            f"({count} elements x {width} bytes)"
        )
    if width == 8:
        return payload.view(np.int64).copy()
    if width in NUMPY_WIDTHS:
        return payload.view(_little_endian(width, signed)).astype(np.int64)
    # Widths 3, 5, 6 and 7: read element i as the 8-byte word that ends at
    # its last byte, so its bytes sit on top; one shift drops the bytes
    # below and sign-extends (arithmetic) or zero-fills (logical).  The
    # first elements' words would start before the payload: they are read
    # from a zero-padded copy of their bytes.
    word = _little_endian(8, signed)
    pad = 8 - width
    head = min(-(-pad // width), count)
    out = np.empty(count, dtype=word)
    padded = np.zeros(pad + head * width, dtype=np.uint8)
    padded[pad:] = payload[: head * width]
    np.copyto(out[:head], _strided_words(padded, word, head, width))
    body = _strided_words(payload[head * width - pad :], word, count - head, width)
    np.copyto(out[head:], body)
    out >>= 64 - 8 * width
    return out.view(np.int64)


def _strided_words(
    buffer: np.ndarray, word: np.dtype, count: int, stride: int
) -> np.ndarray:
    """``count`` (possibly overlapping) words of ``buffer`` ``stride`` bytes apart."""
    return np.ndarray((count,), dtype=word, buffer=buffer, strides=(stride,))
