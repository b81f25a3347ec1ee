"""Ablation — re-decision cadence and lookahead of the adaptive selector.

Sec. IV-B: codecs are re-selected every preset number of batches using a
five-batch lookahead, and "the overhead of dynamic reselection can be
negligible".  This bench sweeps both knobs on the phase-shifting workload:
too-rare re-decisions miss regime changes (bytes rise); re-deciding every
batch must not collapse throughput (selection is cheap).
"""

from common import Table, run_bench
from repro import CompressStreamDB, EngineConfig
from repro.core.calibration import default_calibration
from repro.datasets import QUERIES, smart_grid

CADENCES = (1, 4, 8, 32)
LOOKAHEADS = (1, 5)


def _run(redecide_every, lookahead, batches, batches_per_phase):
    q1 = QUERIES["q1"]
    engine = CompressStreamDB(
        q1.catalog,
        q1.text(slide=q1.window),
        EngineConfig(
            mode="adaptive",
            bandwidth_mbps=100,
            calibration=default_calibration(),
            redecide_every=redecide_every,
            lookahead=lookahead,
        ),
    )
    workload = smart_grid.dynamic_workload(
        batch_size=q1.window * 4,
        batches=batches,
        batches_per_phase=batches_per_phase,
    )
    return engine.run(workload)


def collect(batches=24, batches_per_phase=8):
    return {
        (cadence, lookahead): _run(cadence, lookahead, batches, batches_per_phase)
        for cadence in CADENCES
        for lookahead in LOOKAHEADS
    }


def report(results):
    table = Table(
        [
            "redecide_every",
            "lookahead",
            "throughput tup/s",
            "bytes sent",
            "space saving",
            "decisions",
        ],
        title="Ablation -- selector re-decision cadence on a dynamic workload",
    )
    for (cadence, lookahead), rep in sorted(results.items()):
        table.add(
            cadence, lookahead,
            f"{rep.throughput:,.0f}",
            rep.profiler.bytes_sent,
            f"{rep.space_saving * 100:.1f}%",
            len(rep.decision_log),
        )
    note = (
        "Per-batch re-decision costs little (lightweight stats + analytic "
        "ratios); cadences beyond the phase length miss regime changes and "
        "ship more bytes."
    )
    return [table.render(), note]


def check(results):
    fastest_cadence = results[(1, 5)]
    slowest_cadence = results[(32, 5)]
    # re-deciding every batch must not cost more than ~35% throughput
    assert fastest_cadence.throughput > 0.65 * slowest_cadence.throughput
    # frequent re-decision tracks phases at least as tightly in bytes
    assert (
        fastest_cadence.profiler.bytes_sent
        <= slowest_cadence.profiler.bytes_sent * 1.1
    )


def bench_ablation_redecision():
    run_bench("ablation_redecision", collect, report, check)
