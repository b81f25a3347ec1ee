"""Scalar (tuple-at-a-time) reference implementations of every batch kernel.

The vectorized kernels in :mod:`.kernels` are the production hot paths; the
functions here are their *reference oracles*: deliberately simple,
per-element Python loops whose output the vectorized versions must match
bit-for-bit (compressed payloads) and value-for-value (decoded arrays).
``tests/test_vectorized_kernels.py`` asserts the equivalence with
hypothesis properties, and the differential oracle's ``vectorized`` leg
re-checks it under real query workloads.

Nothing here is fast, and nothing here should be: when a vectorized
kernel and its scalar reference disagree, the scalar loop is the spec.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..errors import CodecError
from .bitstream import BitReader, BitWriter

# PLWAH word layout (mirrors .plwah; duplicated so the reference stays
# readable in one place)
GROUP_BITS = 31
LITERAL_ONES = (1 << GROUP_BITS) - 1
MAX_FILL = (1 << 25) - 1
_FILL_FLAG = 1 << 31
_FILL_ONE = 1 << 30
_POS_SHIFT = 25
_POS_MASK = 0x1F


# ----- exact-width integer packing --------------------------------------


def pack_int_array(
    values: np.ndarray, width: int, *, signed: bool = False
) -> np.ndarray:
    """Per-value ``int.to_bytes`` packing (reference for types.pack_int_array)."""
    values = np.ascontiguousarray(values, dtype=np.int64)
    out = bytearray()
    for v in values.tolist():
        try:
            out += int(v).to_bytes(width, "little", signed=signed)
        except OverflowError:
            raise CodecError(f"value out of range for {width}-byte packing") from None
    return np.frombuffer(bytes(out), dtype=np.uint8).copy()


def unpack_int_array(
    payload: np.ndarray, width: int, count: int, *, signed: bool = False
) -> np.ndarray:
    """Per-value ``int.from_bytes`` unpacking (reference for types.unpack_int_array)."""
    payload = np.ascontiguousarray(payload, dtype=np.uint8)
    if payload.size != count * width:
        raise CodecError(
            f"payload has {payload.size} bytes, expected {count * width} "
            f"({count} elements x {width} bytes)"
        )
    raw = payload.tobytes()
    out = np.empty(count, dtype=np.int64)
    for i in range(count):
        out[i] = int.from_bytes(
            raw[i * width : (i + 1) * width], "little", signed=signed
        )
    return out


# ----- aligned Elias codeword math --------------------------------------


def gamma_codeword_ints(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-value gamma (codeword int, bit length) pairs."""
    values = np.asarray(values, dtype=np.int64)
    codes = np.empty(values.size, dtype=np.int64)
    bits = np.empty(values.size, dtype=np.int64)
    for i, v in enumerate(values.tolist()):
        if v < 1:
            raise CodecError("Elias Gamma encodes positive integers only")
        n = int(v).bit_length() - 1
        codes[i] = v
        bits[i] = 2 * n + 1
    return codes, bits


def delta_codeword_ints(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-value delta (codeword int, bit length) pairs."""
    values = np.asarray(values, dtype=np.int64)
    codes = np.empty(values.size, dtype=np.int64)
    bits = np.empty(values.size, dtype=np.int64)
    for i, v in enumerate(values.tolist()):
        if v < 1:
            raise CodecError("Elias Delta encodes positive integers only")
        if v >= (1 << 56):
            raise CodecError("aligned Elias Delta supports values below 2^56")
        n = int(v).bit_length() - 1
        ln = (n + 1).bit_length() - 1
        codes[i] = v + n * (1 << n)
        bits[i] = (2 * ln + 1) + n
    return codes, bits


def delta_codeword_invert(codes: np.ndarray) -> np.ndarray:
    """Per-value inverse of :func:`delta_codeword_ints`."""
    codes = np.asarray(codes, dtype=np.int64)
    out = np.empty(codes.size, dtype=np.int64)
    for i, c in enumerate(codes.tolist()):
        # find n with (n + 1) * 2^n <= c <= (n + 2) * 2^n - 1
        n = -1
        for cand in range(58):
            if (cand + 1) << cand <= c:
                n = cand
            else:
                break
        if n < 0:
            raise CodecError("invalid Elias Delta codeword")
        out[i] = c - n * (1 << n)
    return out


# ----- unaligned bitstreams ---------------------------------------------


def gamma_stream_encode(values: np.ndarray) -> bytes:
    """Classic per-value Elias Gamma bitstream writer."""
    writer = BitWriter()
    for v in np.asarray(values, dtype=np.int64).tolist():
        v = int(v)
        if v < 1:
            raise CodecError("Elias Gamma encodes positive integers only")
        n = v.bit_length() - 1
        writer.write_unary(n)
        if n:
            writer.write(v - (1 << n), n)
    return writer.getvalue()


def gamma_stream_decode(data: bytes, count: int) -> np.ndarray:
    """Per-value Elias Gamma bitstream reader."""
    reader = BitReader(data)
    out = np.empty(count, dtype=np.int64)
    for i in range(count):
        n = reader.read_unary()
        rest = reader.read(n) if n else 0
        out[i] = (1 << n) | rest
    return out


def delta_stream_encode(values: np.ndarray) -> bytes:
    """Classic per-value Elias Delta bitstream writer."""
    writer = BitWriter()
    for v in np.asarray(values, dtype=np.int64).tolist():
        v = int(v)
        if v < 1:
            raise CodecError("Elias Delta encodes positive integers only")
        n = v.bit_length() - 1
        length = n + 1
        ln = length.bit_length() - 1
        writer.write_unary(ln)
        if ln:
            writer.write(length - (1 << ln), ln)
        if n:
            writer.write(v - (1 << n), n)
    return writer.getvalue()


def delta_stream_decode(data: bytes, count: int) -> np.ndarray:
    """Per-value Elias Delta bitstream reader."""
    reader = BitReader(data)
    out = np.empty(count, dtype=np.int64)
    for i in range(count):
        ln = reader.read_unary()
        length = (1 << ln) | (reader.read(ln) if ln else 0)
        n = length - 1
        rest = reader.read(n) if n else 0
        out[i] = (1 << n) | rest
    return out


# ----- run-length encoding ----------------------------------------------


def rle_runs(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-value run detection: (run values, run lengths)."""
    values = np.asarray(values, dtype=np.int64)
    run_values: List[int] = []
    run_lengths: List[int] = []
    for v in values.tolist():
        if run_values and run_values[-1] == v:
            run_lengths[-1] += 1
        else:
            run_values.append(v)
            run_lengths.append(1)
    return (
        np.asarray(run_values, dtype=np.int64),
        np.asarray(run_lengths, dtype=np.int64),
    )


# ----- dictionary encoding ----------------------------------------------


def dict_encode(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-value dictionary build + binary-search coding."""
    values = np.asarray(values, dtype=np.int64)
    dictionary = sorted(set(values.tolist()))
    index = {v: i for i, v in enumerate(dictionary)}
    codes = np.empty(values.size, dtype=np.int64)
    for i, v in enumerate(values.tolist()):
        codes[i] = index[v]
    return np.asarray(dictionary, dtype=np.int64), codes


# ----- base-delta -------------------------------------------------------


def bd_deltas(values: np.ndarray) -> Tuple[int, np.ndarray]:
    """Per-value delta-from-base computation: (base, deltas)."""
    values = np.asarray(values, dtype=np.int64)
    base = min(values.tolist())
    deltas = np.empty(values.size, dtype=np.int64)
    for i, v in enumerate(values.tolist()):
        deltas[i] = v - base
    return int(base), deltas


def dict_pack(values: np.ndarray) -> Tuple[np.ndarray, int, np.ndarray]:
    """:func:`dict_encode` codes packed at the dictionary's code width."""
    dictionary, codes = dict_encode(values)
    width = max(((dictionary.size - 1).bit_length() + 7) // 8, 1)
    return dictionary, width, pack_int_array(codes, width)


def bd_pack(values: np.ndarray) -> Tuple[int, int, np.ndarray]:
    """:func:`bd_deltas` packed at the width of the span: (base, width, payload)."""
    items = np.asarray(values, dtype=np.int64).tolist()
    span = max(items) - min(items)
    if span >= 1 << 63:
        raise CodecError("base-delta span exceeds the int64 code domain")
    base, deltas = bd_deltas(values)
    width = max((span.bit_length() + 7) // 8, 1)
    return base, width, pack_int_array(deltas, width)


# ----- bitmap planes ----------------------------------------------------


def bitmap_planes(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-value bit-plane construction: (sorted dictionary, bool planes)."""
    values = np.asarray(values, dtype=np.int64)
    dictionary = sorted(set(values.tolist()))
    index = {v: i for i, v in enumerate(dictionary)}
    planes = np.zeros((len(dictionary), values.size), dtype=bool)
    for i, v in enumerate(values.tolist()):
        planes[index[v], i] = True
    return np.asarray(dictionary, dtype=np.int64), planes


# ----- NSV pack / unpack ------------------------------------------------

_NSV_WIDTHS = (1, 2, 4, 8)


def _nsv_width_of(value: int, signed: bool) -> int:
    for width in _NSV_WIDTHS:
        if signed:
            bound = 1 << (8 * width - 1)
            if -bound <= value < bound:
                return width
        elif 0 <= value < (1 << (8 * width)):
            return width
    raise CodecError(f"value {value} does not fit 8 bytes")  # pragma: no cover


def nsv_pack(values: np.ndarray, signed: bool) -> Tuple[np.ndarray, np.ndarray]:
    """Per-value NSV packing: (descriptor bytes, data bytes)."""
    values = np.asarray(values, dtype=np.int64)
    descriptors: List[int] = []
    data = bytearray()
    for v in values.tolist():
        width = _nsv_width_of(int(v), signed)
        descriptors.append(_NSV_WIDTHS.index(width))
        data += int(v).to_bytes(width, "little", signed=signed)
    desc = bytearray()
    for i in range(0, len(descriptors), 4):
        quad = descriptors[i : i + 4] + [0] * (4 - len(descriptors[i : i + 4]))
        desc.append(quad[0] | (quad[1] << 2) | (quad[2] << 4) | (quad[3] << 6))
    return (
        np.frombuffer(bytes(desc), dtype=np.uint8).copy(),
        np.frombuffer(bytes(data), dtype=np.uint8).copy(),
    )


def nsv_unpack(
    desc_bytes: np.ndarray, data: np.ndarray, count: int, signed: bool
) -> np.ndarray:
    """Per-value NSV unpacking."""
    desc_raw = np.ascontiguousarray(desc_bytes, dtype=np.uint8).tobytes()
    raw = np.ascontiguousarray(data, dtype=np.uint8).tobytes()
    if len(desc_raw) * 4 < count:
        raise CodecError(
            f"nsv descriptor section covers {len(desc_raw) * 4} elements, "
            f"column claims {count}"
        )
    out = np.empty(count, dtype=np.int64)
    offset = 0
    for i in range(count):
        code = (desc_raw[i // 4] >> (2 * (i % 4))) & 0x3
        width = _NSV_WIDTHS[code]
        if offset + width > len(raw):
            raise CodecError(
                f"nsv payload truncated: data section holds {len(raw)} bytes, "
                f"descriptors require more"
            )
        out[i] = int.from_bytes(raw[offset : offset + width], "little", signed=signed)
        offset += width
    return out


# ----- PLWAH ------------------------------------------------------------


def _to_groups(bits: np.ndarray) -> List[int]:
    """Per-bit 31-bit group packing (MSB-first)."""
    bits = np.asarray(bits, dtype=bool).tolist()
    groups: List[int] = []
    for i in range(0, len(bits), GROUP_BITS):
        chunk = bits[i : i + GROUP_BITS]
        g = 0
        for j in range(GROUP_BITS):
            g = (g << 1) | (1 if j < len(chunk) and chunk[j] else 0)
        groups.append(g)
    return groups


def plwah_encode(bits: np.ndarray) -> np.ndarray:
    """Per-group PLWAH encoder (the original loop implementation)."""
    groups = _to_groups(np.asarray(bits, dtype=bool))
    words: List[int] = []
    i = 0
    n = len(groups)
    while i < n:
        g = groups[i]
        if g == 0 or g == LITERAL_ONES:
            fill_bit = 1 if g == LITERAL_ONES else 0
            j = i
            while j < n and groups[j] == g and (j - i) < MAX_FILL:
                j += 1
            count = j - i
            position = 0
            if fill_bit == 0 and j < n:
                nxt = groups[j]
                if nxt != 0 and (nxt & (nxt - 1)) == 0:
                    # Single dirty bit: absorb the next group into this fill.
                    position = GROUP_BITS - int(nxt).bit_length() + 1
                    j += 1
            words.append(
                _FILL_FLAG
                | (_FILL_ONE if fill_bit else 0)
                | (position << _POS_SHIFT)
                | count
            )
            i = j
        else:
            words.append(g)
            i += 1
    return np.asarray(words, dtype=np.uint32)


def plwah_decode(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Per-word PLWAH decoder (the original loop implementation)."""
    groups: List[int] = []
    for w in np.asarray(words, dtype=np.uint32):
        w = int(w)
        if w & _FILL_FLAG:
            fill = LITERAL_ONES if (w & _FILL_ONE) else 0
            count = w & MAX_FILL
            groups.extend([fill] * count)
            position = (w >> _POS_SHIFT) & _POS_MASK
            if position:
                if w & _FILL_ONE:
                    raise CodecError("position list on a one-fill is invalid")
                groups.append(1 << (GROUP_BITS - position))
        else:
            groups.append(w)
    expected = (n_bits + GROUP_BITS - 1) // GROUP_BITS
    if len(groups) != expected:
        raise CodecError(
            f"PLWAH stream decodes to {len(groups)} groups, expected {expected}"
        )
    out = np.zeros(n_bits, dtype=bool)
    for gi, g in enumerate(groups):
        for j in range(GROUP_BITS):
            p = gi * GROUP_BITS + j
            if p >= n_bits:
                break
            out[p] = bool((g >> (GROUP_BITS - 1 - j)) & 1)
    return out
