"""Goodput vs. fault rate — cost of the recovery protocol (docs/robustness.md).

Shape: goodput (delivered tuples per virtual second) degrades monotonically
as the link gets lossier, because retransmissions, timeouts and backoff
waits all charge virtual time; at moderate rates every batch still arrives
(quarantined = 0) and outputs stay bit-identical to a clean-link run, while
a fully dead link quarantines everything and terminates cleanly.

Everything is seeded (fault injection, data generation) and selection runs
calibration-only (``profile_query=False``), so the table reproduces
bit-for-bit across runs.
"""

import numpy as np
from common import Table, run_bench, scale
from repro import CompressStreamDB, EngineConfig
from repro.datasets import QUERIES
from repro.net.faults import FaultProfile
from repro.net.transport import ReliabilityConfig

#: symmetric drop/corrupt probability per frame copy
FAULT_RATES = (0.0, 0.02, 0.05, 0.1, 0.2, 0.4, 1.0)
QNAME = "q1"
FAULT_SEED = 7


def run_at(rate, batches, windows_per_batch):
    q = QUERIES[QNAME]
    profile = None
    if rate > 0:
        profile = FaultProfile(drop_rate=rate, corrupt_rate=rate, seed=FAULT_SEED)
    engine = CompressStreamDB(
        q.catalog,
        q.text(slide=q.window),
        EngineConfig(
            mode="adaptive",
            bandwidth_mbps=100.0,
            fault_profile=profile,
            reliability=ReliabilityConfig(max_retries=6),
            profile_query=False,
        ),
    )
    source = q.make_source(
        batch_size=q.window * windows_per_batch,
        batches=batches * scale(),
        seed=11,
    )
    return engine.run(source, collect_outputs=True)


def collect(batches=6, windows_per_batch=8):
    return {
        rate: run_at(rate, batches, windows_per_batch) for rate in FAULT_RATES
    }


def report(reports):
    table = Table(
        [
            "drop=corrupt rate",
            "injected",
            "detected",
            "retried",
            "recovered",
            "quarantined",
            "delivered tuples",
            "delivered %",
            "retry time",
            "goodput tup/s",
        ],
        title="Goodput vs. fault rate (q1, 100 Mbps, max_retries=6)",
    )
    for rate, rep in reports.items():
        faults = rep.faults
        delivered = rep.delivered_tuples
        table.add(
            f"{rate:.2f}",
            faults.injected_total,
            faults.detected,
            faults.retried,
            faults.recovered,
            faults.quarantined,
            delivered,
            f"{delivered / rep.tuples * 100:.1f}%",
            f"{faults.retry_seconds:.3f}s",
            f"{rep.goodput:,.0f}",
        )
    return [table.render()]


def check(reports):
    clean = reports[0.0]
    assert clean.faults.injected_total == 0
    assert clean.faults.detected == 0
    for rate, rep in reports.items():
        faults = rep.faults
        # the robustness invariant: every detected failure is resolved
        assert faults.detected == faults.recovered + faults.quarantined
        assert rep.delivered_tuples + faults.quarantined_tuples == rep.tuples
        if 0 < rate <= 0.1:
            # moderate loss: recovery delivers everything, bit-identically
            assert faults.quarantined == 0
            assert rep.delivered_tuples == rep.tuples
            for name in clean.outputs.columns:
                assert np.array_equal(
                    clean.outputs.columns[name], rep.outputs.columns[name]
                )
    # a fully dead link quarantines every batch instead of hanging
    dead = reports[1.0]
    assert dead.faults.quarantined == dead.profiler.batches
    assert dead.delivered_tuples == 0
    # recovery costs time: goodput at heavy loss below the clean link's
    assert reports[0.4].goodput < clean.goodput


def bench_fault_recovery():
    run_bench("fault_recovery", collect, report, check)
