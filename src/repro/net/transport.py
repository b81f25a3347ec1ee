"""Reliable delivery of compressed frames over an unreliable channel.

The wire format (``repro.wire.format``) *detects* transit corruption via
its CRC trailer; this module *recovers* from it.  The protocol is a
stop-and-wait ARQ in virtual time, mirroring what the paper's client and
server would run over a real lossy edge link:

* every batch frame is wrapped in a sequence-numbered transport envelope
  with its own CRC (so a bit-flip in the sequence number itself is caught
  and cannot confuse deduplication);
* a frame that arrives corrupted (envelope CRC, frame CRC, or wire-format
  parse failure) triggers a NACK and a retransmission;
* a frame that never arrives (dropped or truncated to nothing) triggers a
  retransmission timeout;
* retransmissions back off exponentially — ``backoff_base_s * 2**k``
  capped at ``backoff_cap_s`` — in *virtual* seconds, so runs remain
  deterministic and byte-reproducible;
* duplicate deliveries are deduplicated by sequence number;
* after ``max_retries`` retransmissions the batch is quarantined to the
  dead-letter list and the stream moves on — a 100 %-loss link terminates
  cleanly instead of hanging or crashing.

All timing is charged to the wrapped channel, so retransmitted bytes show
up in the byte counters and the goodput-vs-fault-rate benchmark measures
the real cost of recovery.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Optional, Set, Tuple

from ..errors import TransportError
from ..stream.batch import CompressedBatch
from ..stream.schema import Schema
from ..wire.format import WireFormatError, deserialize_batch, serialize_batch
from .faults import DeadLetter, FaultReport, FaultyChannel

ENVELOPE_MAGIC = b"CSTX"
_HEADER = struct.Struct("<4sI")  # magic, sequence number
_CRC = struct.Struct("<I")

#: growth of every exponential backoff: transport retries and restarts
BACKOFF_FACTOR = 2.0
#: the largest exponent the backoff evaluates: ``2.0 ** 1023`` is the
#: largest finite power of two and puts any base above 1e-300 far past any
#: practical cap, so a later index returns the cap instead of overflowing
_MAX_BACKOFF_EXPONENT = 1023


def capped_backoff_s(base_s: float, cap_s: float, index: int) -> float:
    """``base_s * BACKOFF_FACTOR**index`` capped at ``cap_s``, for any index."""
    return min(cap_s, base_s * BACKOFF_FACTOR ** min(index, _MAX_BACKOFF_EXPONENT))


def pack_envelope(seq: int, frame: bytes) -> bytes:
    """Wrap a wire frame with a sequence number and an envelope CRC."""
    if seq < 0 or seq > 0xFFFFFFFF:
        raise TransportError("sequence number out of range")
    body = _HEADER.pack(ENVELOPE_MAGIC, seq) + frame
    return body + _CRC.pack(zlib.crc32(body) & 0xFFFFFFFF)


def unpack_envelope(data: bytes) -> Tuple[int, bytes]:
    """Validate an envelope and return ``(seq, frame)``."""
    if len(data) < _HEADER.size + _CRC.size:
        raise TransportError("envelope too short")
    body, (crc,) = data[: -_CRC.size], _CRC.unpack(data[-_CRC.size:])
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise TransportError("envelope checksum mismatch")
    magic, seq = _HEADER.unpack_from(body, 0)
    if magic != ENVELOPE_MAGIC:
        raise TransportError("bad envelope magic")
    return int(seq), body[_HEADER.size:]


@dataclass(frozen=True)
class ReliabilityConfig:
    """Retry/backoff knobs of the recovery protocol (virtual seconds)."""

    #: retransmissions allowed per batch beyond the first attempt
    max_retries: int = 8
    #: retransmission timeout when nothing arrives (a dropped frame)
    rto_s: float = 0.05
    backoff_base_s: float = 0.01
    backoff_cap_s: float = 1.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise TransportError("max_retries cannot be negative")
        if self.rto_s < 0 or self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise TransportError("timeouts cannot be negative")

    def backoff_s(self, retry_index: int) -> float:
        """Capped exponential backoff before retransmission ``retry_index``."""
        return capped_backoff_s(self.backoff_base_s, self.backoff_cap_s, retry_index)


@dataclass
class TransportOutcome:
    """Result of shipping one batch through the reliable link."""

    #: the batch as reconstructed by the receiver; None when quarantined
    delivered: Optional[CompressedBatch]
    #: total virtual seconds: wire time of every attempt + stalls,
    #: timeouts and backoff waits
    seconds: float
    #: send attempts made (1 = clean first try)
    attempts: int
    #: envelope bytes that crossed the link (all attempts)
    bytes_on_wire: int

    @property
    def quarantined(self) -> bool:
        return self.delivered is None


class ReliableTransport:
    """Stop-and-wait ARQ over a :class:`FaultyChannel`.

    The sender side serializes each :class:`CompressedBatch` through the
    binary wire format and retransmits until the receiver side — which
    validates the envelope and frame and deduplicates by sequence number
    — acknowledges an intact copy, or the retry budget is exhausted.
    """

    def __init__(
        self,
        channel: FaultyChannel,
        schema: Schema,
        config: Optional[ReliabilityConfig] = None,
    ):
        if not isinstance(channel, FaultyChannel):
            raise TransportError("ReliableTransport requires a FaultyChannel")
        self.channel = channel
        self.schema = schema
        self.config = config or ReliabilityConfig()
        self.report = FaultReport()
        self._next_seq = 0
        self._seen: Set[int] = set()

    # ----- sender ----------------------------------------------------------

    def send_batch(
        self,
        compressed: CompressedBatch,
        ready_time: Optional[float] = None,
    ) -> TransportOutcome:
        """Ship one batch, retrying until delivered or quarantined."""
        frame = serialize_batch(compressed)
        seq = self._next_seq
        self._next_seq += 1
        envelope = pack_envelope(seq, frame)
        cfg = self.config

        seconds = 0.0
        bytes_on_wire = 0
        failures = 0
        delivered: Optional[CompressedBatch] = None
        attempts = 0
        while attempts <= cfg.max_retries:
            attempts += 1
            is_retry = attempts > 1
            wire = self.channel.ship(
                len(envelope),
                None if ready_time is None else ready_time + seconds,
            )
            seconds += wire
            bytes_on_wire += len(envelope)
            if is_retry:
                self.report.retry_seconds += wire
            copies = self.channel.deliver(envelope)
            stall = sum(extra for _, extra in copies)
            seconds += stall
            if is_retry:
                self.report.retry_seconds += stall
            delivered = self._receive(copies, seq)
            if delivered is not None:
                break
            failures += 1
            if not copies:
                # nothing arrived: the sender only learns via timeout
                self.report.timeouts += 1
                seconds += cfg.rto_s
                self.report.retry_seconds += cfg.rto_s
            if attempts <= cfg.max_retries:
                backoff = cfg.backoff_s(attempts - 1)
                seconds += backoff
                self.report.retried += 1
                self.report.retry_seconds += backoff

        if failures:
            self.report.detected += 1
            if delivered is not None:
                self.report.recovered += 1
            else:
                self.report.quarantined += 1
                self.report.quarantined_tuples += compressed.n
                self.report.dead_letters.append(
                    DeadLetter(
                        seq=seq,
                        tuples=compressed.n,
                        attempts=attempts,
                        reason=(
                            f"undelivered after {attempts} attempts "
                            f"({cfg.max_retries} retries)"
                        ),
                    )
                )
        return TransportOutcome(
            delivered=delivered,
            seconds=seconds,
            attempts=attempts,
            bytes_on_wire=bytes_on_wire,
        )

    # ----- receiver --------------------------------------------------------

    def _receive(self, copies, expected_seq: int) -> Optional[CompressedBatch]:
        """Validate delivered copies; return the first intact new batch."""
        accepted: Optional[CompressedBatch] = None
        for payload, _delay in copies:
            try:
                seq, frame = unpack_envelope(payload)
            except TransportError:
                self.report.corrupt_frames += 1
                continue
            if seq in self._seen:
                self.report.duplicates_discarded += 1
                continue
            try:
                batch = deserialize_batch(frame, self.schema)
            except WireFormatError:
                self.report.corrupt_frames += 1
                continue
            # an intact frame with an unexpected sequence number cannot
            # occur under stop-and-wait; guard anyway so a future pipelined
            # sender fails loudly instead of reordering silently
            if seq != expected_seq:
                raise TransportError(
                    f"frame for seq {seq} while awaiting {expected_seq}"
                )
            self._seen.add(seq)
            accepted = batch
        return accepted
