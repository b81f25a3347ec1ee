"""Fig. 8 — compression / decompression time breakdown per method.

Paper shape: NS has the lowest compress+decompress total; EG/ED are the
slowest eager coders; NSV's cost is dominated by decompression (descriptor
translation); decompression of every lightweight method is a small
fraction of total time; CompressStreamDB sits in the middle — it optimizes
the whole pipeline, not the compression stage.
"""

from common import (
    DATASET_LABELS,
    METHOD_LABELS,
    METHODS,
    Table,
    average,
    run_bench,
    run_dataset,
)
from repro.datasets import DATASET_QUERIES


def collect(batches=3, windows_per_batch=20):
    rows = {}
    for dataset in DATASET_QUERIES:
        for mode in METHODS:
            reports = run_dataset(
                dataset, mode, batches=batches, windows_per_batch=windows_per_batch
            )
            rows[(dataset, mode)] = {
                "compress": average(
                    [
                        r.stage_seconds()["compress"] / r.profiler.batches
                        for r in reports.values()
                    ]
                ),
                "decompress": average(
                    [
                        r.stage_seconds()["decompress"] / r.profiler.batches
                        for r in reports.values()
                    ]
                ),
                "total": average(
                    [r.total_seconds / r.profiler.batches for r in reports.values()]
                ),
            }
    return {"rows": rows}


def report(result):
    rows = result["rows"]
    blocks = []
    for dataset in DATASET_QUERIES:
        table = Table(
            ["Method", "compress ms/batch", "decompress ms/batch", "of total"],
            title=f"Fig. 8 -- (de)compression time, {DATASET_LABELS[dataset]}",
        )
        for mode in METHODS:
            r = rows[(dataset, mode)]
            share = (r["compress"] + r["decompress"]) / r["total"]
            table.add(
                METHOD_LABELS[mode],
                f"{r['compress'] * 1e3:.3f}",
                f"{r['decompress'] * 1e3:.3f}",
                f"{share * 100:.1f}%",
            )
        blocks.append(table.render())
    return blocks


def check(result):
    rows = result["rows"]
    for dataset in DATASET_QUERIES:
        ns = rows[(dataset, "static:ns")]
        nsv = rows[(dataset, "static:nsv")]
        # NSV pays for decompression; NS decompresses nothing
        assert ns["decompress"] == 0.0
        assert nsv["decompress"] > 0.0
        # decompression of direct methods is zero; of lightweight β = 1
        # methods it stays a minor share of the total
        assert nsv["decompress"] / nsv["total"] < 0.5


def bench_fig8_comp_decomp():
    run_bench("fig8_comp_decomp", collect, report, check)
