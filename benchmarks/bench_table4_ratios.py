"""Table IV — relations between time and compression ratio.

For every dataset and method: the transmission-time ratio vs baseline, the
inverse compression ratio 1/r, the query-time ratio vs baseline, and the
inverse query-step ratio 1/r'.  Paper shape: trans_time ratio tracks 1/r
(transmission is byte-proportional), query_time ratio tracks 1/r' (β = 1
methods have r' = 1), CompressStreamDB achieves the lowest trans ratio and
1/r on every dataset, and saves ~66.8 % space on average.
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
    cells = {}
    for dataset in DATASET_QUERIES:
        for mode in METHODS:
            reports = run_dataset(
                dataset, mode, batches=batches, windows_per_batch=windows_per_batch
            )
            # aggregate TOTALS over the dataset's two queries so the
            # byte-proportionality of transmission holds exactly
            # (averaging per-query ratios would weight them inconsistently)
            sent = sum(r.profiler.bytes_sent for r in reports.values())
            raw = sum(r.profiler.bytes_uncompressed for r in reports.values())
            cells[(dataset, mode)] = {
                "trans": sum(r.stage_seconds()["trans"] for r in reports.values()),
                "query": sum(r.stage_seconds()["query"] for r in reports.values()),
                "inv_r": sent / raw,
                "space_saving": 1.0 - sent / raw,
            }
    return {"cells": cells}


def report(result):
    cells = result["cells"]
    blocks = []
    for dataset in DATASET_QUERIES:
        base = cells[(dataset, "baseline")]
        table = Table(
            ["Ratio"] + [METHOD_LABELS[m] for m in METHODS],
            title=f"Table IV -- {DATASET_LABELS[dataset]}",
        )
        for key, label in (
            ("trans", "trans_time ratio"),
            ("inv_r", "1/r"),
            ("query", "query_time ratio"),
        ):
            row = [label]
            for mode in METHODS:
                value = cells[(dataset, mode)][key]
                if key in ("trans", "query"):
                    value = value / base[key] if base[key] else 0.0
                row.append(f"{value:.3f}")
            table.add(*row)
        blocks.append(table.render())

    adaptive_saving = average(
        [cells[(d, "adaptive")]["space_saving"] for d in DATASET_QUERIES]
    )
    adaptive_trans = average(
        [
            cells[(d, "adaptive")]["trans"] / cells[(d, "baseline")]["trans"]
            for d in DATASET_QUERIES
        ]
    )
    summary = (
        f"CompressStreamDB average space saving: {adaptive_saving * 100:.1f}% "
        f"(paper: 66.8%); average trans_time saving: "
        f"{(1 - adaptive_trans) * 100:.1f}% (paper: 66.7%)"
    )
    blocks.append(summary)
    return blocks


def check(result):
    cells = result["cells"]
    for dataset in DATASET_QUERIES:
        base_trans = cells[(dataset, "baseline")]["trans"]
        for mode in METHODS:
            c = cells[(dataset, mode)]
            trans_ratio = c["trans"] / base_trans
            # trans_time ratio tracks 1/r: byte-accurate channel
            assert abs(trans_ratio - c["inv_r"]) < 0.05 * max(c["inv_r"], 1.0), (
                dataset, mode,
            )
        # CompressStreamDB reaches (or nearly reaches) the best 1/r; the
        # selector optimizes *total time*, so it may trade a few percent of
        # compression ratio for cheaper compression (Sec. VII-C notes it is
        # not the fastest compressor either -- it optimizes the pipeline)
        adaptive_inv_r = cells[(dataset, "adaptive")]["inv_r"]
        best_static = min(
            cells[(dataset, m)]["inv_r"] for m in METHODS if m != "adaptive"
        )
        assert adaptive_inv_r <= best_static * 1.25, dataset
        assert cells[(dataset, "adaptive")]["space_saving"] > 0.5, (
            f"adaptive must save the majority of bytes on {dataset}"
        )


def bench_table4_ratios():
    run_bench("table4_ratios", collect, report, check)
