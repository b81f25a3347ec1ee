"""Binary wire format for compressed batches.

Sec. VI sketches embedding CompressStreamDB's compression module into other
engines (e.g. as a custom Flink serializer).  This module is that
integration surface: a self-describing binary frame that round-trips a
:class:`~repro.stream.batch.CompressedBatch` through real bytes, so any
transport (socket, Kafka, file) can carry compressed batches between a
CompressStreamDB client and server.

Frame layout (little-endian)::

    magic   4s   = b"CSDB"
    version u16  = 1
    n       u32  tuples in the batch
    ncols   u16
    per column:
        name_len u16, name utf-8
        codec_len u8, codec name utf-8
        size_c   u8   (declared wire width of the source field)
        nbytes   u64  (charged transmitted size)
        meta: count u16, then per entry
            key_len u8, key utf-8, tag u8, value
            tags: 0 = int64, 1 = bool, 2 = int64 ndarray, 3 = bytes/uint8
        payload_len u64, payload bytes

The frame is *checksummed* (crc32 trailer) so transport corruption is
detected rather than decoded into wrong query answers.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, Dict, Tuple

import numpy as np

from ..compression.base import CompressedColumn
from ..compression.registry import get_codec
from ..errors import CodecError, SchemaError
from ..stream.batch import CompressedBatch
from ..stream.schema import Schema

MAGIC = b"CSDB"
VERSION = 1

_TAG_INT = 0
_TAG_BOOL = 1
_TAG_I64_ARRAY = 2
_TAG_BYTES = 3


class WireFormatError(CodecError):
    """The byte stream is not a valid CompressStreamDB frame."""


def _pack_meta_value(value: Any) -> Tuple[int, bytes]:
    if isinstance(value, (bool, np.bool_)):
        return _TAG_BOOL, struct.pack("<B", int(value))
    if isinstance(value, (int, np.integer)):
        return _TAG_INT, struct.pack("<q", int(value))
    if isinstance(value, np.ndarray):
        if value.dtype == np.uint8:
            return _TAG_BYTES, struct.pack("<Q", value.size) + value.tobytes()
        arr = np.ascontiguousarray(value, dtype=np.int64)
        return _TAG_I64_ARRAY, struct.pack("<Q", arr.size) + arr.tobytes()
    if isinstance(value, (bytes, bytearray)):
        return _TAG_BYTES, struct.pack("<Q", len(value)) + bytes(value)
    raise WireFormatError(f"meta value of type {type(value).__name__} not serializable")


def _unpack_meta_value(tag: int, buf: memoryview, pos: int) -> Tuple[Any, int]:
    if tag == _TAG_BOOL:
        return bool(buf[pos]), pos + 1
    if tag == _TAG_INT:
        (v,) = struct.unpack_from("<q", buf, pos)
        return int(v), pos + 8
    if tag in (_TAG_I64_ARRAY, _TAG_BYTES):
        (count,) = struct.unpack_from("<Q", buf, pos)
        pos += 8
        if tag == _TAG_I64_ARRAY:
            nbytes = count * 8
            arr = np.frombuffer(buf[pos : pos + nbytes], dtype=np.int64).copy()
        else:
            nbytes = count
            arr = np.frombuffer(buf[pos : pos + nbytes], dtype=np.uint8).copy()
        if arr.size != count:
            raise WireFormatError("truncated meta array")
        return arr, pos + nbytes
    raise WireFormatError(f"unknown meta tag {tag}")


def _serialize_column(name: str, cc: CompressedColumn) -> bytes:
    parts = []
    name_b = name.encode("utf-8")
    codec_b = cc.codec.encode("utf-8")
    parts.append(struct.pack("<H", len(name_b)) + name_b)
    parts.append(struct.pack("<B", len(codec_b)) + codec_b)
    parts.append(struct.pack("<BQ", cc.source_size_c, cc.nbytes))
    meta_items = sorted(cc.meta.items())
    parts.append(struct.pack("<H", len(meta_items)))
    for key, value in meta_items:
        key_b = key.encode("utf-8")
        tag, payload = _pack_meta_value(value)
        parts.append(
            struct.pack("<B", len(key_b)) + key_b + struct.pack("<B", tag) + payload
        )
    payload = np.ascontiguousarray(cc.payload, dtype=np.uint8).tobytes()
    parts.append(struct.pack("<Q", len(payload)) + payload)
    return b"".join(parts)


def serialize_batch(batch: CompressedBatch) -> bytes:
    """Encode a compressed batch into one self-describing binary frame."""
    body_parts = [
        MAGIC,
        struct.pack("<HIH", VERSION, batch.n, len(batch.columns)),
    ]
    for name in batch.schema.names:
        body_parts.append(_serialize_column(name, batch.columns[name]))
    body = b"".join(body_parts)
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def deserialize_batch(data: bytes, schema: Schema) -> CompressedBatch:
    """Decode a frame produced by :func:`serialize_batch`.

    Validates magic, version, checksum and schema consistency.  Every
    malformed input — short buffers, bad lengths, invalid utf-8, any
    low-level parse failure — surfaces as :class:`WireFormatError`; no raw
    ``struct.error`` or ``UnicodeDecodeError`` ever escapes, so the
    transport's recovery protocol can treat ``WireFormatError`` as "this
    frame is corrupt, NACK it" without a catch-all.
    """
    if len(data) < len(MAGIC) + 8 + 4:
        raise WireFormatError("frame too short")
    body, (crc,) = data[:-4], struct.unpack("<I", data[-4:])
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise WireFormatError("checksum mismatch: frame corrupted in transit")
    buf = memoryview(body)
    if bytes(buf[:4]) != MAGIC:
        raise WireFormatError("bad magic: not a CompressStreamDB frame")
    version, n, ncols = struct.unpack_from("<HIH", buf, 4)
    if version != VERSION:
        raise WireFormatError(f"unsupported frame version {version}")
    pos = 4 + 8
    columns: Dict[str, CompressedColumn] = {}
    try:
        for _ in range(ncols):
            name, cc, pos = _deserialize_column(buf, pos, n)
            columns[name] = cc
    except WireFormatError:
        raise
    except (
        struct.error, UnicodeDecodeError, ValueError, IndexError, OverflowError
    ) as exc:
        raise WireFormatError(f"malformed frame: {exc}") from exc
    if pos != len(body):
        raise WireFormatError("trailing bytes after the last column")
    try:
        return CompressedBatch(schema=schema, n=int(n), columns=columns)
    except SchemaError as exc:
        raise WireFormatError(f"frame does not match schema: {exc}") from exc


def _read_bytes(buf: memoryview, pos: int, count: int, what: str) -> Tuple[bytes, int]:
    """Bounds-checked slice (plain slicing silently shortens past the end)."""
    if count < 0 or pos + count > len(buf):
        raise WireFormatError(f"truncated {what}")
    return bytes(buf[pos : pos + count]), pos + count


def _deserialize_column(buf: memoryview, pos: int, n: int):
    (name_len,) = struct.unpack_from("<H", buf, pos)
    pos += 2
    name_b, pos = _read_bytes(buf, pos, name_len, "column name")
    name = name_b.decode("utf-8")
    (codec_len,) = struct.unpack_from("<B", buf, pos)
    pos += 1
    codec_b, pos = _read_bytes(buf, pos, codec_len, "codec name")
    codec = codec_b.decode("utf-8")
    size_c, nbytes = struct.unpack_from("<BQ", buf, pos)
    pos += 9
    (meta_count,) = struct.unpack_from("<H", buf, pos)
    pos += 2
    meta: Dict[str, Any] = {}
    for _ in range(meta_count):
        (key_len,) = struct.unpack_from("<B", buf, pos)
        pos += 1
        key_b, pos = _read_bytes(buf, pos, key_len, "meta key")
        key = key_b.decode("utf-8")
        (tag,) = struct.unpack_from("<B", buf, pos)
        pos += 1
        meta[key], pos = _unpack_meta_value(tag, buf, pos)
    _check_meta(codec, meta)
    (payload_len,) = struct.unpack_from("<Q", buf, pos)
    pos += 8
    if pos + payload_len > len(buf):
        raise WireFormatError("truncated column payload")
    payload = np.frombuffer(buf[pos : pos + payload_len], dtype=np.uint8).copy()
    pos += payload_len
    cc = CompressedColumn(
        codec=codec,
        n=int(n),
        payload=payload,
        meta=meta,
        nbytes=int(nbytes),
        source_size_c=int(size_c),
    )
    return name, cc, pos


def _check_meta(codec_name: str, meta: Dict[str, Any]) -> None:
    """The column names a registered codec and carries every meta entry
    that codec's decoders read, each with its declared value type."""
    try:
        codec = get_codec(codec_name)
    except CodecError as exc:
        raise WireFormatError(str(exc)) from None
    for key, kind in codec.meta_types.items():
        if key not in meta:
            raise WireFormatError(f"{codec_name} column lacks meta entry {key!r}")
        value = meta[key]
        if kind is np.ndarray:
            ok = isinstance(value, np.ndarray) and value.dtype == np.int64
        else:
            ok = type(value) is kind
        if not ok:
            raise WireFormatError(
                f"{codec_name} meta entry {key!r} is not of type {kind.__name__}"
            )


def frame_size(batch: CompressedBatch) -> int:
    """Exact framed size in bytes (payloads + all headers + checksum)."""
    return len(serialize_batch(batch))
