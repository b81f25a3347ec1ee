"""Per-tenant circuit breakers with graceful degradation.

The breaker watches the transport's health signals — dead-letter
quarantines, heavy retry pressure, and supervisor-contained crashes —
over a sliding window of recent steps.  Too many failures trip it OPEN,
which puts the tenant into *degraded mode*: the client is restricted to
cheap always-safe codecs (via the PR 1 demotion path) and the server
disables direct-on-compressed fast paths by forcing decode-first
execution.  Degraded service is slower but keeps delivering results
instead of burning retries on a hostile link.

After a cooldown (virtual seconds, per CSD010) the breaker goes
HALF_OPEN and lets one probe step run at full service; a clean probe
closes the breaker and restores normal mode, a failed probe re-opens it
with an escalated (capped) cooldown.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque

from ..errors import ServeError

CLOSED = "CLOSED"
OPEN = "OPEN"
HALF_OPEN = "HALF_OPEN"

#: a step needing this many transport attempts counts as a soft failure
RETRY_PRESSURE = 4
#: cooldown multiplier applied on each re-trip (capped by cooldown_cap_s)
COOLDOWN_FACTOR = 2.0


@dataclass(frozen=True)
class BreakerConfig:
    """Trip/recover thresholds (times are virtual seconds)."""

    #: failures within the sliding window that trip the breaker
    failure_threshold: int = 4
    #: number of recent steps the failure count is evaluated over
    window: int = 16
    #: OPEN -> HALF_OPEN cooldown after the first trip
    cooldown_s: float = 2.0
    cooldown_cap_s: float = 30.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ServeError("failure_threshold must be >= 1")
        if self.window < self.failure_threshold:
            raise ServeError("window must be >= failure_threshold")
        if self.cooldown_s <= 0 or not math.isfinite(self.cooldown_s):
            raise ServeError("cooldown_s must be positive and finite")
        if self.cooldown_cap_s < self.cooldown_s:
            raise ServeError("cooldown_cap_s must be >= cooldown_s")


class CircuitBreaker:
    """CLOSED -> OPEN -> HALF_OPEN state machine over step outcomes."""

    def __init__(self, config: BreakerConfig):
        self.config = config
        self.state = CLOSED
        self.trips = 0
        self.recoveries = 0
        self._outcomes: Deque[bool] = deque(maxlen=config.window)
        self._cooldown = config.cooldown_s
        self._open_until = 0.0

    @property
    def degraded(self) -> bool:
        """Tenant should run in degraded mode while not CLOSED."""
        return self.state != CLOSED

    def _trip(self, now: float) -> None:
        self.state = OPEN
        self.trips += 1
        self._open_until = now + self._cooldown
        self._cooldown = min(
            self.config.cooldown_cap_s, self._cooldown * COOLDOWN_FACTOR
        )
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
                self._cooldown = self.config.cooldown_s
                self._outcomes.clear()
            return
        self._outcomes.append(failed)
        if (
            self.state == CLOSED
            and sum(self._outcomes) >= self.config.failure_threshold
        ):
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
