"""Multi-tenant serving resilience — fleet scaling under loss (docs/robustness.md).

Shape: the supervisor runs fleets of 1 / 8 / 64 tenants over clean and
5%-lossy links.  On a clean link goodput (delivered tuples per virtual
second) is flat across fleet sizes modulo checkpoint overhead; under
loss, retransmission backoff charges virtual time, so goodput degrades by
a seeded, deterministic ratio while every tenant still finishes HEALTHY
or DEGRADED — never a process crash, never an unaccounted batch.

Each tenant gets its own fault seed (seed-per-link), otherwise the whole
fleet would replay one identical drop pattern.  Fault injection and
virtual time are fully seeded; the only machine-dependent input is the
per-process codec calibration, which shifts codec choices (and thus the
lossy/clean goodput ratio) by far less than the checked floor allows.
"""

from common import Table, run_bench, scale
from repro.net.faults import FaultProfile
from repro.net.transport import ReliabilityConfig
from repro.serve import ServeSupervisor, TenantSpec

FLEETS = (1, 8, 64)
LOSS_RATE = 0.05
QUERY_CYCLE = ("q1", "q2", "q3", "q4", "q5", "q6")
DATA_SEED = 11
FAULT_SEED = 7


def fleet_specs(n_tenants, loss, batches, batch_size):
    specs = []
    for i in range(n_tenants):
        profile = None
        reliability = None
        if loss > 0:
            profile = FaultProfile.lossy(loss, seed=FAULT_SEED + i)
            reliability = ReliabilityConfig(max_retries=6)
        specs.append(
            TenantSpec(
                tenant=f"t{i:03d}",
                query=QUERY_CYCLE[i % len(QUERY_CYCLE)],
                batches=batches,
                batch_size=batch_size,
                seed=DATA_SEED + i,
                fault_profile=profile,
                reliability=reliability,
                checkpoint_every=4,
            )
        )
    return specs


def collect(batches=4, batch_size=512):
    reports = {}
    for n_tenants in FLEETS:
        for loss in (0.0, LOSS_RATE):
            specs = fleet_specs(
                n_tenants, loss, batches * scale(), batch_size
            )
            reports[(n_tenants, loss)] = ServeSupervisor(specs).run()
    return reports


def report(reports):
    table = Table(
        [
            "tenants",
            "loss",
            "delivered",
            "retries",
            "dead",
            "healthy/degraded/quar",
            "goodput tup/s",
            "p95 ms",
        ],
        title="Serving resilience: fleet size x link loss "
        "(virtual-time goodput)",
    )
    for (n_tenants, loss), rep in reports.items():
        counts = rep.health_counts()
        table.add(
            n_tenants,
            f"{loss:.2f}",
            f"{rep.batches_delivered}/{rep.batches_total}",
            sum(t.retries for t in rep.tenants),
            sum(t.dead_letters for t in rep.tenants),
            f"{counts['HEALTHY']}/{counts['DEGRADED']}/{counts['QUARANTINED']}",
            f"{rep.goodput_tps:,.0f}",
            f"{rep.p95_latency_s() * 1e3:.2f}",
        )
    return [table.render()]


def check(reports):
    for (n_tenants, loss), rep in reports.items():
        # the tentpole invariant: faults degrade tenants, never the process
        assert rep.process_crashes == 0
        assert rep.health_counts()["QUARANTINED"] == 0
        for tenant in rep.tenants:
            assert tenant.health in ("HEALTHY", "DEGRADED")
            accounted = (
                tenant.batches_delivered
                + tenant.dead_letters
                + tenant.batches_shed
            )
            assert accounted == tenant.batches_total
        # retries recover every lost frame: nothing reaches dead letters
        assert rep.delivered_fraction == 1.0
        if loss == 0.0:
            assert sum(t.retries for t in rep.tenants) == 0
    # recovery costs virtual time: lossy goodput below the clean fleet's
    for n_tenants in FLEETS:
        assert (
            reports[(n_tenants, LOSS_RATE)].goodput_tps
            < reports[(n_tenants, 0.0)].goodput_tps
        )
    # ... but at fleet scale 5% loss costs well under half the goodput
    # (seeded virtual time: 0.62 of the clean fleet's at 64 tenants)
    big = max(FLEETS)
    degradation = (
        reports[(big, LOSS_RATE)].goodput_tps / reports[(big, 0.0)].goodput_tps
    )
    assert degradation > 0.4, degradation


def bench_serve_resilience():
    run_bench("serve_resilience", collect, report, check)
