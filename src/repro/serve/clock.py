"""Virtual clock of the serving layer.

Everything under :mod:`repro.net` already runs in virtual time (CSD003);
the serving layer extends that discipline one level up: restart backoff,
circuit-breaker cooldowns and token-bucket refill are all computed
against this clock, never against the wall (CSD003).  A supervisor run
is therefore bit-reproducible — the schedule depends only on seeded
inputs and deterministic virtual costs, and a simulated slow tenant
costs no real seconds.

The clock only moves forward, in explicit :meth:`advance` steps issued
by the supervisor's scheduling loop; there is no ``sleep`` anywhere —
"waiting" is modelled as an eligibility timestamp compared against
:attr:`now`.
"""

from __future__ import annotations

import math

from ..errors import ServeError


class VirtualClock:
    """A monotonically advancing virtual-seconds counter."""

    def __init__(self, start: float = 0.0):
        if not math.isfinite(start) or start < 0:
            raise ServeError("clock must start at a finite, non-negative time")
        self._now = float(start)

    @property
    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward by ``seconds``; returns the new now."""
        if not math.isfinite(seconds) or seconds < 0:
            raise ServeError("cannot advance the clock by a negative time")
        self._now += seconds
        return self._now

    def advance_to(self, when: float) -> float:
        """Jump forward to ``when`` (no-op if already past it)."""
        if not math.isfinite(when):
            raise ServeError("cannot advance the clock to a non-finite time")
        if when > self._now:
            self._now = when
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"VirtualClock(now={self._now:.6f})"
