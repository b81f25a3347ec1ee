"""Vectorized batch kernels for codec encode/decode hot paths.

Every function here has a scalar reference oracle in :mod:`.scalar_ref`
with identical signature and semantics; ``tests/test_vectorized_kernels.py``
asserts bit-identical compressed bytes and value-identical (dtype
included) decoded arrays, and the differential oracle's ``vectorized``
leg re-checks the pair under full query workloads.

The module-level dispatch flag (:func:`scalar_reference_mode`) swaps every
kernel for its scalar reference at once: codecs call the dispatchers below,
so a single context manager turns the whole engine into the
tuple-at-a-time oracle — that is how the fourth differential leg and the
speedup benchmarks obtain their baseline.

Kernel techniques (after MorphStore's vectorized compressed processing):

* exact-width integer packing rides :mod:`..types` (little-endian narrow
  dtypes at widths 1, 2 and 4, overlapping words of the next width
  otherwise);
* DICT and BD write codes at their packed width in one pass: a gather
  through a code-width lookup table, a subtraction into the narrow dtype;
* unaligned Elias Gamma/Delta streams are built by bit-scattering all
  codeword payloads into one bit array (``np.packbits``) and decoded by
  computing every codeword start via pointer doubling over the
  "next-set-bit" jump function — O(total_bits · log n) vector work
  instead of per-value ``BitReader`` calls;
* PLWAH encodes runs of 31-bit groups with run-length vectorization and
  decodes fills/literals/absorbed positions with bulk scatters.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Tuple

import numpy as np

from ..errors import CodecError
from ..stats import DENSE_SPAN_FACTOR, factorize, value_domain
from ..stats import present_slots, slot_ranks
from ..types import bytes_for_unsigned, narrow_int_array, unsigned_dtype
from ..types import pack_int_array, unpack_int_array
from . import scalar_ref
from .bitstream import (
    _floor_log2,
    delta_codeword_ints as _delta_codeword_ints,
    delta_codeword_invert as _delta_codeword_invert,
    gamma_codeword_ints as _gamma_codeword_ints,
)

#: Up to this many span values per element, DICT codes gather through a
#: lookup table; a wider span takes ``np.unique``.
DICT_LUT_SPAN_FACTOR = 64

# ----- dispatch ---------------------------------------------------------

_STATE = threading.local()


def using_scalar_reference() -> bool:
    """Whether kernels currently dispatch to the scalar reference oracles."""
    return bool(getattr(_STATE, "scalar", False))


@contextmanager
def scalar_reference_mode(enabled: bool = True) -> Iterator[None]:
    """Swap every batch kernel for its tuple-at-a-time reference oracle.

    Used by the differential oracle's ``vectorized`` leg and the kernel
    benchmarks; nested uses restore the previous state.
    """
    previous = using_scalar_reference()
    _STATE.scalar = bool(enabled)
    try:
        yield
    finally:
        _STATE.scalar = previous


# ----- dispatchers (codecs call these) ----------------------------------


def pack_ints(values: np.ndarray, width: int, *, signed: bool = False) -> np.ndarray:
    if using_scalar_reference():
        return scalar_ref.pack_int_array(values, width, signed=signed)
    return pack_int_array(values, width, signed=signed)


def unpack_ints(
    payload: np.ndarray, width: int, count: int, *, signed: bool = False
) -> np.ndarray:
    if using_scalar_reference():
        return scalar_ref.unpack_int_array(payload, width, count, signed=signed)
    return unpack_int_array(payload, width, count, signed=signed)


def gamma_codewords(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    if using_scalar_reference():
        return scalar_ref.gamma_codeword_ints(values)
    return _gamma_codeword_ints(values)


def delta_codewords(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    if using_scalar_reference():
        return scalar_ref.delta_codeword_ints(values)
    return _delta_codeword_ints(values)


def delta_invert(codes: np.ndarray) -> np.ndarray:
    if using_scalar_reference():
        return scalar_ref.delta_codeword_invert(codes)
    return _delta_codeword_invert(codes)


def rle_runs(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(run values, run lengths) of consecutive equal elements."""
    if using_scalar_reference():
        return scalar_ref.rle_runs(values)
    values = np.asarray(values, dtype=np.int64)
    if values.size == 0:
        return values.copy(), np.zeros(0, dtype=np.int64)
    boundaries = np.nonzero(values[1:] != values[:-1])[0] + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [values.size]])
    return values[starts], (ends - starts).astype(np.int64)


def dict_encode(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(sorted dictionary, per-element codes).

    :func:`~repro.stats.factorize`: a dense span is coded through a lookup
    table indexed by ``value - min``; only a wide span sorts.
    """
    if using_scalar_reference():
        return scalar_ref.dict_encode(values)
    return factorize(values)


def dict_pack(values: np.ndarray) -> Tuple[np.ndarray, int, np.ndarray]:
    """(sorted dictionary, code width, codes packed at that width).

    Codes gather through a lookup table over ``value - min`` typed at the
    code width.  Its slots come from a presence scatter over a dense span
    (:data:`~repro.stats.DENSE_SPAN_FACTOR`), else from a sort; past
    :data:`DICT_LUT_SPAN_FACTOR` the table is too large and ``np.unique`` codes.
    """
    if using_scalar_reference():
        return scalar_ref.dict_pack(values)
    values = np.asarray(values, dtype=np.int64)
    n = int(values.size)
    lo, hi = (int(values.min()), int(values.max())) if n else (0, -1)
    span = hi - lo + 1
    if span > DICT_LUT_SPAN_FACTOR * n:
        dictionary, codes = np.unique(values, return_inverse=True)
        width = bytes_for_unsigned(dictionary.size - 1)
        return dictionary, width, narrow_int_array(codes.reshape(-1), width)
    offsets = values - np.int64(lo) if lo else values
    if span <= DENSE_SPAN_FACTOR * n:
        slots = present_slots(offsets, span)
    else:
        ordered = np.sort(offsets)
        slots = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    width = bytes_for_unsigned(max(slots.size - 1, 0))
    codes = slot_ranks(slots, span, offsets, unsigned_dtype(width))
    return slots + lo, width, narrow_int_array(codes, width)


def bd_pack(values: np.ndarray) -> Tuple[int, int, np.ndarray]:
    """(base, delta width, deltas from the base packed at that width).

    One min and one max choose the width; the deltas are subtracted straight
    into its unsigned NumPy dtype, exact because the span proves ``0 <= v -
    base < 2^(8 width)``.  Widths 3, 5, 6 and 7 then keep their low bytes.
    """
    if using_scalar_reference():
        return scalar_ref.bd_pack(values)
    values = np.asarray(values, dtype=np.int64)
    base = int(values.min())
    span = int(values.max()) - base
    if span >= 1 << 63:
        raise CodecError("base-delta span exceeds the int64 code domain")
    width = bytes_for_unsigned(span)
    deltas = np.empty(values.size, dtype=unsigned_dtype(width))
    np.subtract(values, np.int64(base), out=deltas, casting="unsafe")
    return base, width, narrow_int_array(deltas, width)


def bitmap_planes(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(sorted dictionary, bool planes of shape (kindnum, n))."""
    if using_scalar_reference():
        return scalar_ref.bitmap_planes(values)
    dictionary, codes = dict_encode(values)
    planes = np.zeros((dictionary.size, codes.size), dtype=bool)
    planes[codes, np.arange(codes.size)] = True
    return dictionary, planes


def gamma_stream_encode(values: np.ndarray) -> bytes:
    if using_scalar_reference():
        return scalar_ref.gamma_stream_encode(values)
    return _gamma_stream_encode_vec(values)


def gamma_stream_decode(data: bytes, count: int) -> np.ndarray:
    if using_scalar_reference():
        return scalar_ref.gamma_stream_decode(data, count)
    return _gamma_stream_decode_vec(data, count)


def delta_stream_encode(values: np.ndarray) -> bytes:
    if using_scalar_reference():
        return scalar_ref.delta_stream_encode(values)
    return _delta_stream_encode_vec(values)


def delta_stream_decode(data: bytes, count: int) -> np.ndarray:
    if using_scalar_reference():
        return scalar_ref.delta_stream_decode(data, count)
    return _delta_stream_decode_vec(data, count)


def nsv_pack(values: np.ndarray, signed: bool) -> Tuple[np.ndarray, np.ndarray]:
    if using_scalar_reference():
        return scalar_ref.nsv_pack(values, signed)
    return _nsv_pack_vec(values, signed)


def nsv_unpack(
    desc_bytes: np.ndarray, data: np.ndarray, count: int, signed: bool
) -> np.ndarray:
    if using_scalar_reference():
        return scalar_ref.nsv_unpack(desc_bytes, data, count, signed)
    return _nsv_unpack_vec(desc_bytes, data, count, signed)


def plwah_encode(bits: np.ndarray) -> np.ndarray:
    if using_scalar_reference():
        return scalar_ref.plwah_encode(bits)
    return _plwah_encode_vec(bits)


def plwah_decode(words: np.ndarray, n_bits: int) -> np.ndarray:
    if using_scalar_reference():
        return scalar_ref.plwah_decode(words, n_bits)
    return _plwah_decode_vec(words, n_bits)


# ----- shared index arithmetic ------------------------------------------


def _exclusive_cumsum(counts: np.ndarray) -> np.ndarray:
    out = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=out[1:])
    return out


def _within(counts: np.ndarray) -> np.ndarray:
    """``concat(arange(c) for c in counts)`` without a Python loop."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    return np.arange(total, dtype=np.int64) - np.repeat(
        _exclusive_cumsum(counts), counts
    )


# ----- unaligned Elias streams ------------------------------------------


def _scatter_bit_fields(
    bits: np.ndarray,
    field_starts: np.ndarray,
    field_values: np.ndarray,
    field_lengths: np.ndarray,
) -> None:
    """Write each value's ``length`` low bits MSB-first at its start offset."""
    total = int(field_lengths.sum())
    if total == 0:
        return
    within = _within(field_lengths)
    positions = np.repeat(field_starts, field_lengths) + within
    shifts = np.repeat(field_lengths, field_lengths) - 1 - within
    bits[positions] = (np.repeat(field_values, field_lengths) >> shifts) & 1


def _gamma_stream_encode_vec(values: np.ndarray) -> bytes:
    values = np.asarray(values, dtype=np.int64)
    if values.size == 0:
        return b""
    if values.min() < 1:
        raise CodecError("Elias Gamma encodes positive integers only")
    n = _floor_log2(values)
    lengths = 2 * n + 1
    starts = _exclusive_cumsum(lengths)
    total_bits = int(lengths.sum())
    bits = np.zeros(-(-total_bits // 8) * 8, dtype=np.uint8)
    # a gamma codeword read as an integer is the value itself: its n + 1
    # significant bits start right after the n leading (unary) zeros
    _scatter_bit_fields(bits, starts + n, values, n + 1)
    return np.packbits(bits).tobytes()


def _delta_stream_encode_vec(values: np.ndarray) -> bytes:
    values = np.asarray(values, dtype=np.int64)
    if values.size == 0:
        return b""
    if values.min() < 1:
        raise CodecError("Elias Delta encodes positive integers only")
    n = _floor_log2(values)
    length = n + 1
    ln = _floor_log2(length)
    lengths = (2 * ln + 1) + n
    starts = _exclusive_cumsum(lengths)
    total_bits = int(lengths.sum())
    bits = np.zeros(-(-total_bits // 8) * 8, dtype=np.uint8)
    # field 1: gamma codeword of `length` (ln + 1 significant bits after
    # ln unary zeros); field 2: the n low bits of the value
    _scatter_bit_fields(bits, starts + ln, length, ln + 1)
    _scatter_bit_fields(bits, starts + 2 * ln + 1, values - (np.int64(1) << n), n)
    return np.packbits(bits).tobytes()


def _next_one_table(bits: np.ndarray, dtype: type = np.int64) -> np.ndarray:
    """For each position p, the smallest q >= p with ``bits[q] == 1``.

    Positions past the last set bit map to ``bits.size`` (sentinel).
    """
    total = bits.size
    idx = np.where(bits, np.arange(total, dtype=dtype), total)
    return np.minimum.accumulate(idx[::-1])[::-1]


def _orbit(jump: np.ndarray, count: int, sentinel: int) -> np.ndarray:
    """First ``count`` iterates of 0 under ``jump``.

    ``jump`` must map ``sentinel`` to itself.  ``jump`` is squared only
    until a chunk of iterates can be chased with a few thousand scalar
    steps; each chunk is then expanded with vectorized ``jump`` gathers.
    The cost is O(len(jump) · log chunk) vector operations plus O(count)
    gather work — squaring all the way to ``count`` would instead pass
    over the full table log(count) times.
    """
    if count <= 0:
        return np.zeros(0, dtype=jump.dtype)
    chunk = 1
    g = jump
    while chunk * 16384 < count:
        g = g[g]
        chunk *= 2
    n_anchor = -(-count // chunk)
    anchors = np.empty(n_anchor, dtype=jump.dtype)
    pos = 0
    for i in range(n_anchor):
        anchors[i] = pos
        pos = int(g[pos])
    if chunk == 1:
        return anchors[:count]
    out = np.empty((n_anchor, chunk), dtype=jump.dtype)
    cur = anchors
    for j in range(chunk):
        out[:, j] = cur
        if j + 1 < chunk:
            cur = jump[cur]
    return out.reshape(-1)[:count]


def _stream_pos_dtype(total: int) -> type:
    # int32 position tables halve the memory traffic of the per-bit
    # passes; intermediates stay below ~2 * total + small constants
    return np.int32 if total < 2**30 else np.int64


def _read_bit_fields(
    payload: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Read each (start, length <= 63) bit field MSB-first into an int64.

    Reads an aligned 64-bit byte window per field plus one spill byte
    (offset <= 7 means a field can straddle at most 9 bytes), so the cost
    is per-field, not per-bit.  Zero-length fields read as 0.
    """
    if starts.size == 0:
        return np.zeros(0, dtype=np.int64)
    data = np.concatenate([payload, np.zeros(9, dtype=np.uint8)])
    byte0 = starts >> 3
    w = np.zeros(starts.size, dtype=np.uint64)
    for k in range(8):
        w = (w << np.uint64(8)) | data[byte0 + k]
    tail = data[byte0 + 8].astype(np.uint64)
    off = (starts & 7).astype(np.uint64)
    ln = lengths.astype(np.uint64)
    end = off + ln
    fits = end <= np.uint64(64)
    # when the field spills past the window, shift in the spill byte's
    # top bits; otherwise drop the window's low bits below the field
    spill = np.where(fits, np.uint64(0), end - np.uint64(64))
    rshift = np.where(fits, np.uint64(64) - end, np.uint64(0))
    combined = ((w << spill) | (tail >> (np.uint64(8) - spill))) >> rshift
    return (combined & ((np.uint64(1) << ln) - np.uint64(1))).astype(np.int64)


def _gamma_stream_decode_vec(data: bytes, count: int) -> np.ndarray:
    if count == 0:
        return np.empty(0, dtype=np.int64)
    payload = np.frombuffer(data, dtype=np.uint8)
    bits = np.unpackbits(payload)
    total = bits.size
    if total == 0:
        raise CodecError("bitstream exhausted")
    dtype = _stream_pos_dtype(total)
    nxt1 = _next_one_table(bits, dtype)
    # codeword at p: n = nxt1[p] - p zeros, the 1, then n payload bits
    p = np.arange(total, dtype=dtype)
    jump = np.minimum(2 * nxt1 - p + 1, total)
    jump = np.concatenate([jump, np.asarray([total], dtype=dtype)])
    starts = _orbit(jump, count, total).astype(np.int64)
    q = nxt1[np.minimum(starts, total - 1)].astype(np.int64)
    if starts[-1] >= total or q[-1] >= total:
        raise CodecError("bitstream exhausted")
    n = q - starts
    if (q + 1 + n > total).any():
        raise CodecError("bitstream exhausted")
    if n.max() > 62:
        raise CodecError("Elias Gamma codeword exceeds int64")
    # the codeword read as an integer is the value: n + 1 bits from q
    return _read_bit_fields(payload, q, n + 1)


def _delta_stream_decode_vec(data: bytes, count: int) -> np.ndarray:
    if count == 0:
        return np.empty(0, dtype=np.int64)
    payload = np.frombuffer(data, dtype=np.uint8)
    bits = np.unpackbits(payload)
    total = bits.size
    if total == 0:
        raise CodecError("bitstream exhausted")
    dtype = _stream_pos_dtype(total)
    nxt1 = _next_one_table(bits, dtype)
    q = nxt1
    # read the `length` gamma codeword at every position from a 16-bit
    # window at its marker (the marker bit itself is the leading 1 of
    # `length`): 1 + ln <= 7 bits plus a byte offset <= 7 always fit.
    # One precomputed window per byte, one gather.  The table is exact
    # wherever a codeword can start (ln <= 6); wider-prefix positions
    # yield clamped garbage, but the orbit never visits one — each
    # visited start is re-validated below before any value is emitted.
    ext = np.concatenate([payload, np.zeros(3, dtype=np.uint8)])
    w16 = (ext[:-1].astype(np.uint16) << 8) | ext[1:]
    # scratch-buffer passes: every 10 MB temporary saved is a page-fault
    # pass saved, which dominates at stream sizes past the L2 cache
    ln_c = q - np.arange(total, dtype=dtype)
    np.minimum(ln_c, 6, out=ln_c)
    scratch = q >> 3
    length = w16[scratch].astype(dtype)
    np.bitwise_and(q, 7, out=scratch)
    scratch += ln_c
    np.subtract(15, scratch, out=scratch)
    np.right_shift(length, scratch, out=length)
    np.left_shift(2, ln_c, out=scratch)
    scratch -= 1
    np.bitwise_and(length, scratch, out=length)
    # codeword at p spans q + 1 + ln + n bits with n = length - 1
    jump = ln_c
    jump += q
    jump += length
    np.minimum(jump, total, out=jump)
    jump = np.concatenate([jump, np.asarray([total], dtype=dtype)])
    starts = _orbit(jump, count, total).astype(np.int64)
    if starts[-1] >= total:
        raise CodecError("bitstream exhausted")
    s_q = nxt1[starts].astype(np.int64)
    s_ln = s_q - starts
    if (s_q >= total).any() or (s_ln > 6).any():
        raise CodecError("bitstream exhausted")
    s_rem = _read_bit_fields(payload, s_q + 1, s_ln)
    s_length = (np.int64(1) << s_ln) | s_rem
    s_n = s_length - 1
    if (s_q + 1 + s_ln + s_n > total).any():
        raise CodecError("bitstream exhausted")
    if s_n.max() > 62:
        raise CodecError("Elias Delta codeword exceeds int64")
    rest = _read_bit_fields(payload, s_q + 1 + s_ln, s_n)
    return (np.int64(1) << s_n) | rest


# ----- NSV --------------------------------------------------------------

_NSV_WIDTH_CHOICES = np.array([1, 2, 4, 8], dtype=np.int64)


def _nsv_pack_vec(values: np.ndarray, signed: bool) -> Tuple[np.ndarray, np.ndarray]:
    values = np.ascontiguousarray(values, dtype=np.int64)
    n = int(values.size)
    descriptors = np.searchsorted(
        _NSV_WIDTH_CHOICES, value_domain(values, signed=signed), side="left"
    ).astype(np.uint8)
    widths = _NSV_WIDTH_CHOICES[descriptors]

    # Pack descriptors 4 per byte (2 bits each, little positions first).
    padded = np.zeros(((n + 3) // 4) * 4, dtype=np.uint8)
    padded[:n] = descriptors
    quads = padded.reshape(-1, 4)
    desc_bytes = (
        quads[:, 0] | (quads[:, 1] << 2) | (quads[:, 2] << 4) | (quads[:, 3] << 6)
    ).astype(np.uint8)

    # Scatter each element's low `width` bytes into the data section.
    offsets = np.zeros(n, dtype=np.int64)
    np.cumsum(widths[:-1], out=offsets[1:])
    total = int(offsets[-1] + widths[-1]) if n else 0
    data = np.zeros(total, dtype=np.uint8)
    raw = values.view(np.uint8).reshape(n, 8)
    for code, width in enumerate(_NSV_WIDTH_CHOICES):
        idx = np.nonzero(descriptors == code)[0]
        if idx.size == 0:
            continue
        positions = offsets[idx, None] + np.arange(width)
        data[positions.reshape(-1)] = raw[idx, :width].reshape(-1)
    return desc_bytes, data


def _nsv_unpack_vec(
    desc_bytes: np.ndarray, data: np.ndarray, count: int, signed: bool
) -> np.ndarray:
    desc_bytes = np.ascontiguousarray(desc_bytes, dtype=np.uint8)
    data = np.ascontiguousarray(data, dtype=np.uint8)
    if desc_bytes.size * 4 < count:
        raise CodecError(
            f"nsv descriptor section covers {desc_bytes.size * 4} elements, "
            f"column claims {count}"
        )
    shifts = np.array([0, 2, 4, 6], dtype=np.uint8)
    descriptors = ((desc_bytes[:, None] >> shifts) & 0x3).reshape(-1)[:count]
    widths = _NSV_WIDTH_CHOICES[descriptors]
    offsets = np.zeros(count, dtype=np.int64)
    np.cumsum(widths[:-1], out=offsets[1:])
    total = int(offsets[-1] + widths[-1]) if count else 0
    if data.size < total:
        raise CodecError(
            f"nsv payload truncated: data section holds {data.size} bytes, "
            f"descriptors require {total}"
        )
    wide = np.zeros((count, 8), dtype=np.uint8)
    for code, width in enumerate(_NSV_WIDTH_CHOICES):
        idx = np.nonzero(descriptors == code)[0]
        if idx.size == 0:
            continue
        positions = offsets[idx, None] + np.arange(width)
        wide[idx, :width] = data[positions.reshape(-1)].reshape(-1, width)
        if signed and width < 8:
            negative = (wide[idx, width - 1] & 0x80).astype(bool)
            rows = idx[negative]
            wide[rows[:, None], np.arange(width, 8)] = 0xFF
    return wide.reshape(-1).view(np.int64).copy()


# ----- PLWAH ------------------------------------------------------------

_GROUP_BITS = scalar_ref.GROUP_BITS
_LITERAL_ONES = scalar_ref.LITERAL_ONES
_MAX_FILL = scalar_ref.MAX_FILL
_FILL_FLAG = scalar_ref._FILL_FLAG
_FILL_ONE = scalar_ref._FILL_ONE
_POS_SHIFT = scalar_ref._POS_SHIFT
_POS_MASK = scalar_ref._POS_MASK


# lint: scalar-parity (packing helper shared by both dispatch modes)
def to_groups(bits: np.ndarray) -> np.ndarray:
    """Pack a boolean vector into 31-bit big-endian group integers.

    Each group is widened to 32 bits with a leading zero so the whole
    conversion is one ``np.packbits`` plus a big-endian uint32 view —
    no per-group integer arithmetic.
    """
    bits = np.asarray(bits, dtype=bool)
    n_groups = (bits.size + _GROUP_BITS - 1) // _GROUP_BITS
    padded = np.zeros(n_groups * _GROUP_BITS, dtype=bool)
    padded[: bits.size] = bits
    wide = np.zeros((n_groups, _GROUP_BITS + 1), dtype=bool)
    wide[:, 1:] = padded.reshape(n_groups, _GROUP_BITS)
    words = np.packbits(wide.reshape(-1)).view(">u4")
    return words.astype(np.int64)


# lint: scalar-parity (packing helper shared by both dispatch modes)
def from_groups(groups: np.ndarray, n_bits: int) -> np.ndarray:
    """Inverse of :func:`to_groups`."""
    words = np.asarray(groups).astype(">u4")
    wide = np.unpackbits(words.view(np.uint8)).reshape(-1, _GROUP_BITS + 1)
    return wide[:, 1:].reshape(-1)[:n_bits].astype(bool)


def _plwah_encode_vec(bits: np.ndarray) -> np.ndarray:
    groups = to_groups(np.asarray(bits, dtype=bool))
    n = groups.size
    if n == 0:
        return np.zeros(0, dtype=np.uint32)
    boundary = np.nonzero(groups[1:] != groups[:-1])[0] + 1
    rstart = np.concatenate([[0], boundary])
    rend = np.concatenate([boundary, [n]])
    rval = groups[rstart]
    rlen = (rend - rstart).astype(np.int64)
    n_runs = rval.size

    is_zero = rval == 0
    is_ones = rval == _LITERAL_ONES
    is_fill = is_zero | is_ones
    nxt = np.concatenate([rval[1:], np.zeros(1, dtype=np.int64)])
    # a zero-fill absorbs the first group of the following run when that
    # group has exactly one set bit (runs alternate, so it is a literal)
    absorbs = (
        is_zero
        & (np.arange(n_runs) < n_runs - 1)
        & (nxt > 0)
        & ((nxt & (nxt - 1)) == 0)
    )
    absorbed_prev = np.concatenate([[False], absorbs[:-1]])

    chunks = np.where(is_fill, -(-rlen // _MAX_FILL), 0)
    words_per_run = np.where(is_fill, chunks, rlen - absorbed_prev)
    wstart = _exclusive_cumsum(words_per_run)
    out = np.zeros(int(words_per_run.sum()), dtype=np.int64)

    lit_counts = words_per_run[~is_fill]
    if lit_counts.size and lit_counts.sum():
        offsets = np.repeat(wstart[~is_fill], lit_counts) + _within(lit_counts)
        out[offsets] = np.repeat(rval[~is_fill], lit_counts)

    fill_chunks = chunks[is_fill]
    if fill_chunks.size:
        within = _within(fill_chunks)
        offsets = np.repeat(wstart[is_fill], fill_chunks) + within
        counts = np.minimum(
            np.repeat(rlen[is_fill], fill_chunks) - within * _MAX_FILL, _MAX_FILL
        )
        words = np.full(counts.size, _FILL_FLAG, dtype=np.int64) | counts
        words |= np.where(np.repeat(is_ones[is_fill], fill_chunks), _FILL_ONE, 0)
        # absorbed position rides on the *last* chunk of an absorbing run
        pos_of_run = np.where(
            absorbs, _GROUP_BITS - (_floor_log2(np.maximum(nxt, 1)) + 1) + 1, 0
        )
        is_last = within == np.repeat(fill_chunks, fill_chunks) - 1
        words |= np.where(
            is_last, np.repeat(pos_of_run[is_fill], fill_chunks), 0
        ) << _POS_SHIFT
        out[offsets] = words
    return out.astype(np.uint32)


def _plwah_decode_vec(words: np.ndarray, n_bits: int) -> np.ndarray:
    words = np.asarray(words, dtype=np.uint32).astype(np.int64)
    is_fill = (words & _FILL_FLAG) != 0
    fill_one = (words & _FILL_ONE) != 0
    pos = np.where(is_fill, (words >> _POS_SHIFT) & _POS_MASK, 0)
    if (is_fill & fill_one & (pos > 0)).any():
        raise CodecError("position list on a one-fill is invalid")
    counts = np.where(is_fill, words & _MAX_FILL, 1)
    groups_per_word = counts + (pos > 0)
    total = int(groups_per_word.sum())
    expected = (n_bits + _GROUP_BITS - 1) // _GROUP_BITS
    if total != expected:
        raise CodecError(
            f"PLWAH stream decodes to {total} groups, expected {expected}"
        )
    gstart = _exclusive_cumsum(groups_per_word)
    groups = np.zeros(total, dtype=np.int64)
    literal = ~is_fill
    if literal.any():
        groups[gstart[literal]] = words[literal]
    ones = is_fill & fill_one
    if ones.any():
        c = counts[ones]
        offsets = np.repeat(gstart[ones], c) + _within(c)
        groups[offsets] = _LITERAL_ONES
    absorbed = pos > 0
    if absorbed.any():
        groups[gstart[absorbed] + counts[absorbed]] = np.int64(1) << (
            _GROUP_BITS - pos[absorbed]
        )
    return from_groups(groups, n_bits)
