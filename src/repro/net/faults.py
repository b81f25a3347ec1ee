"""Unreliable-link fault injection (Sec. IV-A edge deployments).

The paper's client-server testbed ships compressed frames over a real
0-1 Gbps network; multi-layer edge topologies add links that drop,
corrupt, truncate, duplicate, and stall frames.  This module makes the
virtual network unreliable *deterministically*: a seeded
:class:`FaultInjector` draws every fault from one RNG stream, so a run
with the same seed and the same fault profile replays the exact same
fault sequence — benchmark curves and recovery tests are reproducible
bit-for-bit.

:class:`FaultyChannel` wraps any existing channel (:class:`Channel`,
:class:`QueuedChannel`, :class:`MultiHopChannel`) without changing its
timing model: time and byte accounting delegate to the wrapped channel,
and fault injection happens on the frame bytes as they "cross" it.  For
multi-hop paths each hop can carry its own :class:`FaultProfile` (a lossy
sensor uplink in front of a clean backbone); a frame dropped at hop *i*
never reaches hop *i+1*, while a duplicate forked at hop *i* traverses
the remaining hops independently.

The recovery side lives in :mod:`repro.net.transport`; the run-level
outcome is summarized in a :class:`FaultReport` attached to
:class:`~repro.core.metrics.RunReport`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ChannelError
from .channel import Channel
from .topology import MultiHopChannel

#: The injectable fault kinds, in the order the injector draws them.
FAULT_KINDS = ("duplicate", "drop", "corrupt", "truncate", "stall")

#: extra virtual seconds a stalled frame pays on top of its wire time
STALL_S = 0.05


@dataclass(frozen=True)
class FaultProfile:
    """Per-link fault rates; all draws come from one seeded RNG stream.

    Rates are per-frame probabilities in [0, 1]; a stalled frame arrives
    :data:`STALL_S` virtual seconds late.  A default profile (all rates
    zero) is a lossless link, so wrapping a channel with it only adds the
    frame serialization path.
    """

    drop_rate: float = 0.0
    corrupt_rate: float = 0.0
    truncate_rate: float = 0.0
    duplicate_rate: float = 0.0
    stall_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in (
            "drop_rate", "corrupt_rate", "truncate_rate", "duplicate_rate", "stall_rate"
        ):
            rate = getattr(self, name)
            if not math.isfinite(rate) or not 0.0 <= rate <= 1.0:
                raise ChannelError(f"{name} must be a probability in [0, 1]")

    @property
    def is_lossless(self) -> bool:
        return (
            self.drop_rate == 0.0
            and self.corrupt_rate == 0.0
            and self.truncate_rate == 0.0
            and self.duplicate_rate == 0.0
            and self.stall_rate == 0.0
        )

    @classmethod
    def lossy(cls, rate: float, seed: int = 0) -> "FaultProfile":
        """Convenience: drop and corrupt at the same rate."""
        return cls(drop_rate=rate, corrupt_rate=rate, seed=seed)


class FaultInjector:
    """Applies one profile's faults to frames, counting every injection."""

    def __init__(self, profile: FaultProfile):
        self.profile = profile
        self._rng = np.random.default_rng(profile.seed)
        self.counts: Dict[str, int] = {kind: 0 for kind in FAULT_KINDS}

    def _hit(self, rate: float) -> bool:
        # draw only for enabled faults: the stream length then depends on
        # the profile alone, keeping replays aligned across frame contents
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        return float(self._rng.random()) < rate

    def _corrupt(self, frame: bytes) -> bytes:
        data = bytearray(frame)
        nflips = int(self._rng.integers(1, 5))
        for _ in range(nflips):
            pos = int(self._rng.integers(0, len(data)))
            data[pos] ^= 1 << int(self._rng.integers(0, 8))
        return bytes(data)

    def _truncate(self, frame: bytes) -> bytes:
        cut = int(self._rng.integers(0, len(frame)))
        return frame[:cut]

    def apply(self, frame: bytes) -> List[Tuple[bytes, float]]:
        """Push one frame through the lossy link.

        Returns the delivered copies as ``(payload, extra_delay_s)``
        pairs: empty when the frame is dropped, two entries when it is
        duplicated.  Corruption/truncation/stall are drawn independently
        per delivered copy, so a duplicate can survive while the original
        arrives mangled.
        """
        if not frame:
            raise ChannelError("cannot inject faults into an empty frame")
        p = self.profile
        copies = 1
        if self._hit(p.duplicate_rate):
            self.counts["duplicate"] += 1
            copies = 2
        delivered: List[Tuple[bytes, float]] = []
        for _ in range(copies):
            if self._hit(p.drop_rate):
                self.counts["drop"] += 1
                continue
            payload = frame
            if self._hit(p.corrupt_rate):
                self.counts["corrupt"] += 1
                payload = self._corrupt(payload)
            if self._hit(p.truncate_rate):
                self.counts["truncate"] += 1
                payload = self._truncate(payload)
            delay = 0.0
            if self._hit(p.stall_rate):
                self.counts["stall"] += 1
                delay = STALL_S
            delivered.append((payload, delay))
        return delivered

    @property
    def injected_total(self) -> int:
        return sum(self.counts.values())


class FaultyChannel(Channel):
    """An unreliable wrapper around any virtual channel.

    Timing and byte accounting delegate to the wrapped channel (the
    wrapper mirrors its counters so existing reporting keeps working);
    :meth:`deliver` additionally pushes frame bytes through the fault
    injector(s).  With ``hop_profiles`` the wrapped channel must be a
    :class:`MultiHopChannel` with one profile per hop.
    """

    def __init__(
        self,
        inner: Channel,
        profile: Optional[FaultProfile] = None,
        hop_profiles: Optional[Sequence[FaultProfile]] = None,
    ):
        if isinstance(inner, FaultyChannel):
            raise ChannelError("cannot wrap a FaultyChannel in a FaultyChannel")
        if profile is not None and hop_profiles is not None:
            raise ChannelError("give either profile or hop_profiles, not both")
        if hop_profiles is not None:
            if not isinstance(inner, MultiHopChannel):
                raise ChannelError("hop_profiles requires a MultiHopChannel")
            if len(hop_profiles) != len(inner.hops):
                raise ChannelError(
                    f"{len(hop_profiles)} hop profiles for "
                    f"{len(inner.hops)} hops"
                )
            profiles: Sequence[FaultProfile] = list(hop_profiles)
        else:
            profiles = [profile or FaultProfile()]
        self.inner = inner
        self.injectors = [FaultInjector(p) for p in profiles]
        super().__init__(
            bandwidth_mbps=inner.bandwidth_mbps, latency_s=inner.latency_s
        )

    # ----- Channel interface (delegating) ---------------------------------

    def _sync_counters(self) -> None:
        self.bytes_sent = self.inner.bytes_sent
        self.batches_sent = self.inner.batches_sent
        self.seconds_spent = self.inner.seconds_spent

    def transmit_seconds(self, nbytes: int) -> float:
        return self.inner.transmit_seconds(nbytes)

    def transmit(self, nbytes: int) -> float:
        seconds = self.inner.transmit(nbytes)
        self._sync_counters()
        return seconds

    def ship(self, nbytes: int, ready_time: Optional[float] = None) -> float:
        seconds = self.inner.ship(nbytes, ready_time)
        self._sync_counters()
        return seconds

    def reset(self) -> None:
        self.inner.reset()
        self._sync_counters()

    # ----- fault injection ------------------------------------------------

    def deliver(self, frame: bytes) -> List[Tuple[bytes, float]]:
        """Run one frame through every hop's injector in sequence."""
        copies: List[Tuple[bytes, float]] = [(frame, 0.0)]
        for injector in self.injectors:
            survived: List[Tuple[bytes, float]] = []
            for payload, delay in copies:
                if not payload:
                    # fully truncated upstream: nothing left to forward
                    continue
                for next_payload, extra in injector.apply(payload):
                    survived.append((next_payload, delay + extra))
            copies = survived
        return copies

    @property
    def injected_counts(self) -> Dict[str, int]:
        """Injection counters summed across hops."""
        totals = {kind: 0 for kind in FAULT_KINDS}
        for injector in self.injectors:
            for kind, count in injector.counts.items():
                totals[kind] += count
        return totals


@dataclass(frozen=True)
class DeadLetter:
    """A batch the transport gave up on after exhausting its retries."""

    seq: int
    tuples: int
    attempts: int
    reason: str


@dataclass
class FaultReport:
    """Run-level fault and recovery accounting (attached to RunReport).

    The core invariant — checked by the robustness test suite — is
    ``detected == recovered + quarantined``: every batch whose delivery
    failed at least once was either eventually delivered intact or ended
    in the dead-letter list; none crash the run or slip through corrupted.
    """

    #: frames the channel actually mangled, per fault kind
    injected: Dict[str, int] = field(
        default_factory=lambda: {kind: 0 for kind in FAULT_KINDS}
    )
    #: batches that hit at least one failed delivery attempt
    detected: int = 0
    #: retransmission attempts issued (beyond each batch's first send)
    retried: int = 0
    #: batches delivered intact after at least one failure
    recovered: int = 0
    #: batches abandoned to the dead-letter list
    quarantined: int = 0
    quarantined_tuples: int = 0
    #: receiver-side integrity failures (envelope or frame CRC/format)
    corrupt_frames: int = 0
    #: sender-side retransmission timeouts (nothing arrived at all)
    timeouts: int = 0
    #: valid frames discarded because their sequence number was already seen
    duplicates_discarded: int = 0
    #: virtual seconds spent on timeouts, backoff waits and retransmissions
    retry_seconds: float = 0.0
    dead_letters: List[DeadLetter] = field(default_factory=list)
    #: client-side codec demotions (CodecDemotion records)
    codec_demotions: List = field(default_factory=list)

    @property
    def injected_total(self) -> int:
        return sum(self.injected.values())

    def summary(self) -> str:
        return (
            f"injected={self.injected_total} detected={self.detected} "
            f"retried={self.retried} recovered={self.recovered} "
            f"quarantined={self.quarantined} "
            f"retry_time={self.retry_seconds:.3f}s "
            f"demotions={len(self.codec_demotions)}"
        )
