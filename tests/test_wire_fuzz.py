"""Fuzzing the wire format: malformed frames must fail *typed*, never crash.

``deserialize_batch`` is the trust boundary of the recovery protocol — the
transport NACKs on :class:`WireFormatError`, so any other exception type
(IndexError, struct.error, UnicodeDecodeError, ...) escaping from a
mangled frame would crash the receiver instead of triggering a
retransmission.
"""

import contextlib
import zlib

import numpy as np
import pytest

from repro.compression import get_codec
from repro.compression.base import CompressedColumn
from repro.compression.registry import all_codec_names
from repro.core import Client, StaticSelector
from repro.errors import CodecError
from repro.sql import plan_query
from repro.stream import Batch, CompressedBatch, Field, Schema
from repro.wire.format import WireFormatError, deserialize_batch, serialize_batch

SCHEMA = Schema(
    [
        Field("ts", "int", 8),
        Field("k", "int", 4),
        Field("v", "float", 4, decimals=2),
    ]
)
QUERY = "select ts, k, avg(v) as m from S [range 8 slide 8] group by k"


def make_frame(mode="adaptive", seed=0, n=64):
    rng = np.random.default_rng(seed)
    batch = Batch.from_values(
        SCHEMA,
        {
            "ts": np.arange(n) + 100,
            "k": rng.integers(0, 4, n),
            "v": np.round(rng.integers(0, 200, n) / 4, 2),
        },
    )
    plan = plan_query(QUERY, {"S": SCHEMA})
    client = Client(SCHEMA, StaticSelector("ns"), plan.profile)
    return serialize_batch(client.compress_batch(batch).batch)


def reseal(body: bytes) -> bytes:
    """Recompute the CRC trailer so corruption reaches the parser."""
    return body + zlib.crc32(body).to_bytes(4, "little")


class TestBitFlipFuzz:
    def test_single_bit_flips_only_raise_wire_format_error(self):
        frame = make_frame()
        rng = np.random.default_rng(42)
        for _ in range(400):
            mangled = bytearray(frame)
            pos = int(rng.integers(0, len(mangled)))
            mangled[pos] ^= 1 << int(rng.integers(0, 8))
            with pytest.raises(WireFormatError):
                deserialize_batch(bytes(mangled), SCHEMA)

    def test_burst_corruption_only_raises_wire_format_error(self):
        frame = make_frame(seed=1)
        rng = np.random.default_rng(7)
        for _ in range(200):
            mangled = bytearray(frame)
            start = int(rng.integers(0, len(mangled)))
            width = int(rng.integers(1, 32))
            for pos in range(start, min(start + width, len(mangled))):
                mangled[pos] = int(rng.integers(0, 256))
            try:
                deserialize_batch(bytes(mangled), SCHEMA)
            except WireFormatError:
                pass  # the only acceptable exception

    def test_every_truncation_point_raises_wire_format_error(self):
        frame = make_frame(seed=2, n=32)
        for cut in range(len(frame)):
            with pytest.raises(WireFormatError):
                deserialize_batch(frame[:cut], SCHEMA)

    def test_empty_and_garbage_inputs(self):
        for junk in (b"", b"\x00", b"CSDB", b"not a frame at all" * 10):
            with pytest.raises(WireFormatError):
                deserialize_batch(junk, SCHEMA)


class TestResealedBodyFuzz:
    """Corrupt the body *behind* a valid CRC: the parser itself must hold.

    This models a malicious/buggy sender rather than transit noise — every
    structural field (counts, lengths, name sizes) gets fuzzed while the
    checksum stays valid, so the parser's own bounds checks are what is
    exercised.
    """

    def test_resealed_random_corruption_parses_or_fails_typed(self):
        frame = make_frame(seed=3)
        body = frame[:-4]
        rng = np.random.default_rng(1234)
        outcomes = {"ok": 0, "typed": 0}
        for _ in range(500):
            mangled = bytearray(body)
            for _ in range(int(rng.integers(1, 8))):
                pos = int(rng.integers(0, len(mangled)))
                mangled[pos] = int(rng.integers(0, 256))
            try:
                out = deserialize_batch(reseal(bytes(mangled)), SCHEMA)
                assert isinstance(out, CompressedBatch)
                outcomes["ok"] += 1
            except WireFormatError:
                outcomes["typed"] += 1
        # the fuzz actually exercised the failure path, not just no-ops
        assert outcomes["typed"] > 0

    def test_resealed_truncations_fail_typed(self):
        frame = make_frame(seed=4, n=32)
        body = frame[:-4]
        for cut in range(4, len(body)):
            try:
                deserialize_batch(reseal(body[:cut]), SCHEMA)
            except WireFormatError:
                pass

    def test_oversized_length_fields_fail_typed(self):
        # blow up the little-endian u32 tuple-count / length fields one at
        # a time; bounds checks must catch the lie before any allocation
        frame = make_frame(seed=5, n=16)
        body = bytearray(frame[:-4])
        for pos in range(4, min(len(body) - 4, 64)):
            mangled = bytearray(body)
            mangled[pos : pos + 4] = b"\xff\xff\xff\xff"
            try:
                deserialize_batch(reseal(bytes(mangled)), SCHEMA)
            except WireFormatError:
                pass


@contextlib.contextmanager
def address_space_cap(headroom=1 << 30):
    """Cap this process's address space ``headroom`` bytes above its size.

    A decoder that trusts a lying length may ask for gigabytes; under the
    cap that surfaces as a ``MemoryError`` (a test failure) instead of
    exhausting the host.  A no-op where the limit cannot be read.
    """
    try:
        import resource

        with open("/proc/self/statm") as statm:
            size = int(statm.read().split()[0]) * resource.getpagesize()
    except (ImportError, OSError):
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = size + headroom
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def mangle(payload: bytes, rng: np.random.Generator, kind: int) -> bytes:
    """Truncate, flip three bytes of, or append bytes to a payload."""
    buf = bytearray(payload)
    if kind == 0:
        return bytes(buf[: int(rng.integers(0, max(len(buf), 1)))])
    if kind == 1:
        for _ in range(3):
            pos = int(rng.integers(0, len(buf)))
            buf[pos] ^= int(rng.integers(1, 256))
        return bytes(buf)
    return bytes(buf) + rng.bytes(int(rng.integers(1, 16)))


def check_views(codec, column: CompressedColumn) -> None:
    """Every decode of a hostile column is a CodecError or a length-n answer."""
    n = column.n
    with contextlib.suppress(CodecError):
        out = codec.decompress(column)
        assert isinstance(out, np.ndarray) and out.shape == (n,), codec.name
    with contextlib.suppress(CodecError):
        runs = codec.run_view(column)
        if runs is not None:
            run_values, run_lengths = runs
            assert run_values.size == run_lengths.size, codec.name
            assert (run_lengths >= 1).all() and run_lengths.sum() == n, codec.name
    with contextlib.suppress(CodecError):
        planes = codec.plane_view(column)
        if planes is not None:
            for value in planes.dictionary.tolist():
                with contextlib.suppress(CodecError):
                    assert planes.mask_of_value(value).shape == (n,), codec.name


class TestHostileCodecPayloads:
    """A resealed frame can carry any payload: decoders must hold on their own.

    The frame CRC and parser only vouch for the framing; the payload
    bytes of a column are whatever the sender wrote.  Every codec's
    decoder (and its run/plane views) must check the layout against the
    column's meta before it allocates or gathers, and fail typed.
    """

    @pytest.mark.parametrize("name", all_codec_names())
    def test_mangled_payloads_decode_or_fail_typed(self, name):
        rng = np.random.default_rng(sum(map(ord, name)))
        values = np.repeat(rng.integers(1, 40, 150), 4).astype(np.int64)
        codec = get_codec(name)
        column = codec.compress(values)
        payload = bytes(column.payload)
        with address_space_cap():
            for i in range(90):
                mangled = mangle(payload, rng, i % 3)
                check_views(
                    codec,
                    CompressedColumn(
                        codec=name,
                        n=column.n,
                        payload=np.frombuffer(mangled, dtype=np.uint8).copy(),
                        meta=column.meta,
                        nbytes=column.nbytes,
                    ),
                )

    def test_negative_run_lengths_are_rejected(self):
        codec = get_codec("rle")
        payload = np.concatenate(
            [
                np.array([1, 2, 3], dtype=np.int64).view(np.uint8),
                np.array([5, -2, 3], dtype=np.int32).view(np.uint8),
            ]
        )
        column = CompressedColumn("rle", 6, payload, {"runs": 3}, nbytes=36)
        for view in (codec.run_view, codec.decompress):
            with pytest.raises(CodecError):
                view(column)


ONE_COLUMN = Schema([Field("v", "int", 8)])


def one_column_body(name: str, rng: np.random.Generator) -> bytes:
    """A frame body (no CRC) carrying one column compressed with ``name``."""
    values = np.repeat(rng.integers(1, 40, 16), 4).astype(np.int64)
    column = get_codec(name).compress(values)
    batch = CompressedBatch(ONE_COLUMN, values.size, {"v": column})
    return serialize_batch(batch)[:-4]


def first_meta_key_offset(name: str) -> int:
    """Byte offset of the first meta key of a one-column frame."""
    header = 4 + 8
    return header + 2 + len("v") + 1 + len(name) + 9 + 2 + 1


class TestHostileMeta:
    """Behind a valid CRC the meta can name anything: the parser checks each
    codec's required entries and their types, so decoders never index a
    missing key, and only typed ``CodecError``s leave the decode surface."""

    @pytest.mark.parametrize("name", all_codec_names())
    def test_resealed_mutations_fail_typed(self, name):
        rng = np.random.default_rng(sum(map(ord, name)))
        body = one_column_body(name, rng)
        with address_space_cap():
            for _ in range(400):
                mangled = bytearray(body)
                for _ in range(int(rng.integers(1, 4))):
                    pos = int(rng.integers(0, len(mangled)))
                    mangled[pos] ^= int(rng.integers(1, 256))
                try:
                    batch = deserialize_batch(reseal(bytes(mangled)), ONE_COLUMN)
                except WireFormatError:
                    continue
                column = batch.columns["v"]
                check_views(get_codec(column.codec), column)

    @pytest.mark.parametrize(
        "name", [n for n in all_codec_names() if get_codec(n).meta_types]
    )
    def test_flipped_meta_key_is_a_wire_error(self, name):
        body = bytearray(one_column_body(name, np.random.default_rng(0)))
        body[first_meta_key_offset(name)] ^= 1
        with pytest.raises(WireFormatError, match="lacks meta entry"):
            deserialize_batch(reseal(bytes(body)), ONE_COLUMN)

    @pytest.mark.parametrize("name", all_codec_names())
    def test_declared_meta_matches_what_compress_writes(self, name):
        values = np.repeat(np.arange(1, 17), 4).astype(np.int64)
        column = get_codec(name).compress(values)
        frame = serialize_batch(CompressedBatch(ONE_COLUMN, values.size, {"v": column}))
        meta = deserialize_batch(frame, ONE_COLUMN).columns["v"].meta
        assert {key: type(value) for key, value in meta.items()} == dict(
            get_codec(name).meta_types
        )

    @pytest.mark.parametrize(
        "meta, message",
        [
            ({"width": True, "offset": 0}, "'width' is not of type int"),
            ({"width": 1, "offset": np.zeros(2, dtype=np.int64)}, "'offset'"),
            ({"offset": 0}, "lacks meta entry 'width'"),
        ],
    )
    def test_wrong_meta_type_is_a_wire_error(self, meta, message):
        column = CompressedColumn("bd", 2, np.zeros(2, dtype=np.uint8), meta)
        frame = serialize_batch(CompressedBatch(ONE_COLUMN, 2, {"v": column}))
        with pytest.raises(WireFormatError, match=message):
            deserialize_batch(frame, ONE_COLUMN)

    def test_array_meta_must_hold_int64(self):
        column = CompressedColumn(
            "dict",
            2,
            np.zeros(2, dtype=np.uint8),
            {"dictionary": np.zeros(3, dtype=np.uint8), "width": 1},
        )
        frame = serialize_batch(CompressedBatch(ONE_COLUMN, 2, {"v": column}))
        with pytest.raises(WireFormatError, match="'dictionary'"):
            deserialize_batch(frame, ONE_COLUMN)

    def test_unknown_codec_is_a_wire_error(self):
        column = CompressedColumn("nope", 2, np.zeros(2, dtype=np.uint8), {})
        frame = serialize_batch(CompressedBatch(ONE_COLUMN, 2, {"v": column}))
        with pytest.raises(WireFormatError, match="unknown codec"):
            deserialize_batch(frame, ONE_COLUMN)
