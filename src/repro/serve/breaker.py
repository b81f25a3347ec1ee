"""Per-tenant circuit breakers with graceful degradation.

The breaker watches the transport's health signals — dead-letter
quarantines, heavy retry pressure, and supervisor-contained crashes —
over a sliding window of the last :data:`WINDOW` steps.
:data:`FAILURE_THRESHOLD` failures in it trip the breaker OPEN, which
puts the tenant into *degraded mode*: the client is restricted to cheap
always-safe codecs (through its restricted-pool hook) and the server
disables direct-on-compressed fast paths by forcing decode-first
execution.  Degraded service is slower but keeps delivering results
instead of burning retries on a hostile link.

After a cooldown of :data:`COOLDOWN_S` virtual seconds (CSD003) the
breaker goes HALF_OPEN and lets one probe step run at full service; a
clean probe closes the breaker and restores normal mode, a failed probe
re-opens it with the cooldown multiplied by :data:`COOLDOWN_FACTOR`, up
to :data:`COOLDOWN_CAP_S`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

CLOSED = "CLOSED"
OPEN = "OPEN"
HALF_OPEN = "HALF_OPEN"

#: a step needing this many transport attempts counts as a soft failure
RETRY_PRESSURE = 4
#: failures within the sliding window that trip the breaker
FAILURE_THRESHOLD = 4
#: number of recent steps the failure count is evaluated over
WINDOW = 16
#: OPEN -> HALF_OPEN cooldown after the first trip (virtual seconds)
COOLDOWN_S = 2.0
#: cooldown multiplier applied on each re-trip, capped by COOLDOWN_CAP_S
COOLDOWN_FACTOR = 2.0
COOLDOWN_CAP_S = 30.0


class CircuitBreaker:
    """CLOSED -> OPEN -> HALF_OPEN state machine over step outcomes."""

    def __init__(self) -> None:
        self.state = CLOSED
        self.trips = 0
        self.recoveries = 0
        self._outcomes: Deque[bool] = deque(maxlen=WINDOW)
        self._cooldown = COOLDOWN_S
        self._open_until = 0.0

    @property
    def degraded(self) -> bool:
        """Tenant should run in degraded mode while not CLOSED."""
        return self.state != CLOSED

    def _trip(self, now: float) -> None:
        self.state = OPEN
        self.trips += 1
        self._open_until = now + self._cooldown
        self._cooldown = min(COOLDOWN_CAP_S, self._cooldown * COOLDOWN_FACTOR)
        self._outcomes.clear()

    def record(self, now: float, failed: bool) -> None:
        """Feed one step outcome; may change state."""
        if self.state == HALF_OPEN:
            # the probe step decides the whole state
            if failed:
                self._trip(now)
            else:
                self.state = CLOSED
                self.recoveries += 1
                self._cooldown = COOLDOWN_S
                self._outcomes.clear()
            return
        self._outcomes.append(failed)
        if self.state == CLOSED and sum(self._outcomes) >= FAILURE_THRESHOLD:
            self._trip(now)

    def allow_probe(self, now: float) -> bool:
        """OPEN breakers transition to HALF_OPEN once cooled down."""
        if self.state == OPEN and now >= self._open_until:
            self.state = HALF_OPEN
            return True
        return self.state == HALF_OPEN

    def next_probe_at(self) -> float:
        """Virtual time when an OPEN breaker becomes probe-eligible."""
        return self._open_until if self.state == OPEN else 0.0
