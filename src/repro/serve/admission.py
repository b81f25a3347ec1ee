"""Admission control, queue watermarks and backpressure signalling.

Three cooperating mechanisms keep one hot tenant from stalling the
serving layer:

* a **token bucket** paces the aggregate service rate in virtual time —
  each processed batch spends one token, :data:`BUCKET_CAPACITY` tokens
  at most, refilled at :data:`REFILL_PER_S` per virtual second, and a
  tenant with no token available simply waits (the supervisor advances
  the clock to the next refill instead of spinning);
* **queue-depth watermarks**: per-tenant queues of arrived-but-unserved
  batches are bounded.  Crossing :data:`HIGH_WATERMARK` sheds load
  *deterministically* — reject-newest, and when several tenants' arrivals
  tie within one scheduling round the victim order comes from one RNG
  stream seeded with :data:`SHED_SEED`, so every run sheds the same
  batches;
* **backpressure frames**: crossing the high watermark also pushes an
  ``XOFF`` control envelope back to the tenant's client through the
  existing transport wire format (its bytes are charged to the tenant's
  channel); the client pauses its arrivals until depth drains to
  :data:`LOW_WATERMARK` and an ``XON`` releases it.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..errors import ServeError
from ..net.transport import pack_envelope, unpack_envelope

#: reserved transport sequence number for serving-layer control frames;
#: data envelopes count up from zero and never legitimately reach it
CONTROL_SEQ = 0xFFFFFFFF

#: service tokens the bucket holds at most (rates are per virtual second)
BUCKET_CAPACITY = 32.0
REFILL_PER_S = 256.0
#: per-tenant queue depth that trips shedding + XOFF
HIGH_WATERMARK = 8
#: depth at which a paused tenant gets its XON
LOW_WATERMARK = 2
#: seed of the RNG stream that orders tied shedding victims
SHED_SEED = 0

_XOFF = b"XOFF"
_XON = b"XON"


def backpressure_frame(pause: bool) -> bytes:
    """An XOFF/XON control envelope in the existing wire format."""
    return pack_envelope(CONTROL_SEQ, _XOFF if pause else _XON)


def parse_backpressure_frame(frame: bytes) -> bool:
    """True for XOFF (pause), False for XON (resume)."""
    seq, payload = unpack_envelope(frame)
    if seq != CONTROL_SEQ or payload not in (_XOFF, _XON):
        raise ServeError("not a backpressure control frame")
    return payload == _XOFF


class TokenBucket:
    """A deterministic token bucket driven by the virtual clock."""

    def __init__(self, capacity: float, refill_per_s: float, start: float = 0.0):
        if capacity < 1 or refill_per_s <= 0:
            raise ServeError("token bucket needs capacity >= 1 and a positive rate")
        self.capacity = float(capacity)
        self.refill_per_s = float(refill_per_s)
        self._tokens = float(capacity)
        self._updated = float(start)

    def _refill(self, now: float) -> None:
        if now < self._updated:
            raise ServeError("token bucket observed time moving backwards")
        self._tokens = min(
            self.capacity, self._tokens + (now - self._updated) * self.refill_per_s
        )
        self._updated = now

    def available(self, now: float) -> float:
        self._refill(now)
        return self._tokens

    def try_take(self, now: float, tokens: float = 1.0) -> bool:
        self._refill(now)
        if self._tokens + 1e-12 >= tokens:
            self._tokens -= tokens
            return True
        return False

    def next_available_at(self, now: float, tokens: float = 1.0) -> float:
        """Earliest virtual time at which ``tokens`` will be available."""
        self._refill(now)
        if self._tokens >= tokens:
            return now
        return now + (tokens - self._tokens) / self.refill_per_s


class AdmissionController:
    """Token-bucket admission plus watermark-driven shedding decisions."""

    def __init__(self) -> None:
        self.bucket = TokenBucket(BUCKET_CAPACITY, REFILL_PER_S)
        self._rng = np.random.default_rng(SHED_SEED)
        self.admitted = 0
        self.deferred = 0
        self.shed_total = 0

    def admit(self, now: float) -> bool:
        """Spend one service token; False defers the tenant this round."""
        if self.bucket.try_take(now):
            self.admitted += 1
            return True
        self.deferred += 1
        return False

    def next_admission_at(self, now: float) -> float:
        return self.bucket.next_available_at(now)

    def shed(self, offered: Sequence[Tuple[str, int]]) -> List[Tuple[str, int]]:
        """Decide how many queued batches each tenant must drop.

        ``offered`` is ``(tenant, queue_depth)`` per tenant, in the
        supervisor's fixed scheduling order.  Every tenant above the high
        watermark sheds down to it (reject-newest: the dropped batches
        are the most recent arrivals).  Tenants with equal over-watermark
        excess are shed in an order drawn from the seeded RNG stream, so
        ties break reproducibly rather than by dict ordering accidents.
        Returns ``(tenant, batches_to_shed)`` pairs, shed order.
        """
        over = [
            (tenant, depth - HIGH_WATERMARK)
            for tenant, depth in offered
            if depth > HIGH_WATERMARK
        ]
        if not over:
            return []
        # group by excess so equally-overloaded tenants tiebreak by seed
        by_excess: dict = {}
        for tenant, excess in over:
            by_excess.setdefault(excess, []).append(tenant)
        decisions: List[Tuple[str, int]] = []
        for excess in sorted(by_excess, reverse=True):
            tied = by_excess[excess]
            order = self._rng.permutation(len(tied))
            for i in order:
                decisions.append((tied[int(i)], excess))
                self.shed_total += excess
        return decisions
