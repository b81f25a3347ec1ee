"""Sec. VII-D — integrating an extra compression scheme (PLWAH).

Paper shape: PLWAH as the *only* compression method transfers ~30 % more
than the adaptive design; adding PLWAH to the adaptive pool can only help
(the selector uses it where it wins), reducing transmission time further
(paper: -10.0 % transfer, +13.4 % overall on their workload).
"""

from common import Table, run_bench
from repro import CompressStreamDB, EngineConfig
from repro.datasets import QUERIES, smart_grid


def _run(mode, batches, windows_per_batch):
    q1 = QUERIES["q1"]
    engine = CompressStreamDB(
        q1.catalog,
        q1.text(slide=q1.window),
        EngineConfig(
            mode=mode,
            bandwidth_mbps=100,
        ),
    )
    source = smart_grid.source(
        batch_size=q1.window * windows_per_batch, batches=batches
    )
    return engine.run(source)


def collect(batches=4, windows_per_batch=8):
    return {
        "plwah_only": _run("static:plwah", batches, windows_per_batch),
        "adaptive": _run("adaptive", batches, windows_per_batch),
        "adaptive_plwah": _run("adaptive+plwah", batches, windows_per_batch),
    }


def report(reports):
    adaptive = reports["adaptive"]
    table = Table(
        [
            "Configuration",
            "trans time vs adaptive",
            "throughput vs adaptive",
            "space saving",
        ],
        title="Sec. VII-D -- PLWAH integration (Smart Grid, Q1, 100 Mbps)",
    )
    for name, rep in reports.items():
        table.add(
            name,
            f"{rep.stage_seconds()['trans'] / adaptive.stage_seconds()['trans']:+.1%}"
            .replace("+", ""),
            f"{rep.throughput / adaptive.throughput:.2f}x",
            f"{rep.space_saving * 100:.1f}%",
        )
    note = (
        "Paper: PLWAH-only transfers 30.2% more than the adaptive design; "
        "adding PLWAH to the pool reduces transmission by 10.0% and lifts "
        "overall performance by 13.4%."
    )
    return [table.render(), note]


def check(reports):
    trans = {k: r.stage_seconds()["trans"] for k, r in reports.items()}
    # PLWAH alone transfers more than the adaptive mix
    assert trans["plwah_only"] > trans["adaptive"]
    # a larger pool can only improve (or match) transmitted bytes
    assert (
        reports["adaptive_plwah"].profiler.bytes_sent
        <= reports["adaptive"].profiler.bytes_sent * 1.02
    )
    # ... and still saves the majority of bytes
    assert reports["adaptive_plwah"].space_saving > 0.5


def bench_plwah_ablation():
    run_bench("plwah_ablation", collect, report, check)
