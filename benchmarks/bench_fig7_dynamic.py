"""Fig. 7 — dynamic workload: adaptive vs the best static method.

Paper shape: on a workload whose data properties shift between regimes,
CompressStreamDB beats the *optimal* static compressed method at every
bandwidth, with the largest margin on constrained links (paper: 9.68x over
baseline and 3.97x over static at 100 Mbps).
"""

from common import Table, run_bench
from repro import CompressStreamDB, EngineConfig
from repro.core.calibration import default_calibration
from repro.datasets import QUERIES, smart_grid

BANDWIDTHS = (10, 100, 500, 1000)
STATIC_CANDIDATES = ("static:bd", "static:ns", "static:dict", "static:rle")


def _run(mode, mbps, batches, batches_per_phase, windows_per_batch):
    q1 = QUERIES["q1"]
    engine = CompressStreamDB(
        q1.catalog,
        q1.text(slide=q1.window),
        EngineConfig(
            mode=mode,
            bandwidth_mbps=mbps,
            calibration=default_calibration(),
            redecide_every=batches_per_phase,  # re-decide at phase cadence
            lookahead=3,
        ),
    )
    workload = smart_grid.dynamic_workload(
        batch_size=q1.window * windows_per_batch,
        batches=batches,
        batches_per_phase=batches_per_phase,
    )
    return engine.run(workload)


def collect(batches=18, batches_per_phase=6, windows_per_batch=4):
    results = {}
    for mbps in BANDWIDTHS:
        def throughput(mode):
            return _run(
                mode, mbps, batches, batches_per_phase, windows_per_batch
            ).throughput

        base = throughput("baseline")
        static_best = max((throughput(mode), mode) for mode in STATIC_CANDIDATES)
        results[mbps] = {
            "baseline": base,
            "static": static_best[0],
            "static_mode": static_best[1],
            "adaptive": throughput("adaptive"),
        }
    return results


def report(results):
    table = Table(
        [
            "Bandwidth",
            "Static (best) vs baseline",
            "CompressStreamDB vs baseline",
            "CmpStr vs static",
        ],
        title="Fig. 7 -- speedup on the phase-shifting smart-grid workload",
    )
    for mbps in sorted(results):
        r = results[mbps]
        table.add(
            f"{mbps} Mbps",
            f"{r['static'] / r['baseline']:.2f}x ({r['static_mode']})",
            f"{r['adaptive'] / r['baseline']:.2f}x",
            f"{r['adaptive'] / r['static']:.2f}x",
        )
    note = (
        "Paper: highest margin at 100 Mbps (9.68x over baseline, 3.97x over "
        "static); static cannot follow regime changes, adaptive re-decides "
        "per phase."
    )
    return [table.render(), note]


def check(results):
    for mbps in (10, 100):
        r = results[mbps]
        assert r["adaptive"] > r["static"], (
            f"adaptive must beat the best static method at {mbps} Mbps"
        )
        assert r["adaptive"] > r["baseline"]
    margins = [results[m]["adaptive"] / results[m]["static"] for m in BANDWIDTHS]
    # the advantage must be larger on constrained links than at 1 Gbps
    assert max(margins[:2]) >= margins[-1] * 0.95


def bench_fig7_dynamic():
    run_bench("fig7_dynamic", collect, report, check)
