"""Serving-layer health reporting.

A :class:`ServeReport` is the supervisor's answer to the engine's
``RunReport``: one row per tenant with its terminal health state and
delivery/recovery counters, plus aggregate virtual-time goodput for the
whole fleet.  Health is a three-state summary:

* ``HEALTHY`` — breaker closed, no outstanding trouble;
* ``DEGRADED`` — serving, but with the breaker open/half-open (cheap
  codecs, decode-first execution) or after shedding load;
* ``QUARANTINED`` — the restart budget is exhausted; the tenant is
  parked and its unserved batches are accounted as lost, while every
  other tenant keeps running.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

HEALTHY = "HEALTHY"
DEGRADED = "DEGRADED"
QUARANTINED = "QUARANTINED"

HEALTH_STATES = (HEALTHY, DEGRADED, QUARANTINED)


def p95(latencies_s: List[float]) -> float:
    """Nearest-rank 95th percentile (0.0 for no samples).

    The rank is ``ceil(0.95 * n)``, taken in integers so an exact
    multiple (n = 20, 100, ...) does not round up a rank.
    """
    if not latencies_s:
        return 0.0
    ordered = sorted(latencies_s)
    rank = -(-95 * len(ordered) // 100)
    return ordered[rank - 1]


@dataclass
class TenantReport:
    """Terminal per-tenant health and delivery counters."""

    tenant: str
    health: str = HEALTHY
    batches_total: int = 0
    batches_delivered: int = 0
    batches_shed: int = 0
    batches_quarantined: int = 0
    tuples_delivered: int = 0
    restarts: int = 0
    crashes: int = 0
    breaker_trips: int = 0
    breaker_recoveries: int = 0
    checkpoints_saved: int = 0
    resumed_from_batch: int = -1
    dead_letters: int = 0
    retries: int = 0
    xoff_frames: int = 0
    #: per-delivered-batch end-to-end virtual latency (seconds)
    latencies_s: List[float] = field(default_factory=list)

    @property
    def delivered_fraction(self) -> float:
        if self.batches_total == 0:
            return 1.0
        return self.batches_delivered / self.batches_total

    def p95_latency_s(self) -> float:
        return p95(self.latencies_s)


@dataclass
class ServeReport:
    """Fleet-level outcome of one supervisor run."""

    tenants: List[TenantReport] = field(default_factory=list)
    virtual_makespan_s: float = 0.0
    admitted_steps: int = 0
    deferred_steps: int = 0
    #: always zero by construction — crashes are contained per tenant;
    #: kept on the report so the bench/CI gate can assert it
    process_crashes: int = 0

    def by_tenant(self) -> Dict[str, TenantReport]:
        return {t.tenant: t for t in self.tenants}

    def health_counts(self) -> Dict[str, int]:
        counts = {state: 0 for state in HEALTH_STATES}
        for t in self.tenants:
            counts[t.health] += 1
        return counts

    @property
    def tuples_delivered(self) -> int:
        return sum(t.tuples_delivered for t in self.tenants)

    @property
    def batches_delivered(self) -> int:
        return sum(t.batches_delivered for t in self.tenants)

    @property
    def batches_total(self) -> int:
        return sum(t.batches_total for t in self.tenants)

    @property
    def delivered_fraction(self) -> float:
        total = self.batches_total
        if total == 0:
            return 1.0
        return self.batches_delivered / total

    @property
    def goodput_tps(self) -> float:
        """Delivered tuples per *virtual* second across the fleet."""
        if self.virtual_makespan_s <= 0:
            return 0.0
        return self.tuples_delivered / self.virtual_makespan_s

    def p95_latency_s(self) -> float:
        return p95([s for tenant in self.tenants for s in tenant.latencies_s])

    def worst_health(self) -> str:
        order = {HEALTHY: 0, DEGRADED: 1, QUARANTINED: 2}
        worst = HEALTHY
        for t in self.tenants:
            if order[t.health] > order[worst]:
                worst = t.health
        return worst

    def summary_rows(self) -> List[Tuple[str, str]]:
        counts = self.health_counts()
        return [
            ("tenants", str(len(self.tenants))),
            (
                "health",
                " / ".join(f"{counts[s]} {s.lower()}" for s in HEALTH_STATES),
            ),
            ("batches delivered", f"{self.batches_delivered}/{self.batches_total}"),
            ("tuples delivered", str(self.tuples_delivered)),
            ("virtual makespan", f"{self.virtual_makespan_s:.3f} s"),
            ("goodput", f"{self.goodput_tps:,.0f} tuples/s (virtual)"),
            ("p95 latency", f"{self.p95_latency_s() * 1e3:.2f} ms (virtual)"),
            ("process crashes", str(self.process_crashes)),
        ]
