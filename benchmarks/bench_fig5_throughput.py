"""Fig. 5 — throughput of ten processing methods on three datasets.

Paper shape: CompressStreamDB beats the baseline on every dataset (3.24x
average in the paper) and matches or beats the best single codec per
dataset (DICT on Smart Grid, NS on Linear Road, BD on Cluster); EG/ED are
inapplicable on Linear Road (negative values -> identity fallback).
"""

from common import (
    DATASET_LABELS,
    METHOD_LABELS,
    METHODS,
    Table,
    average,
    best_of,
    run_bench,
    run_dataset,
)
from repro.datasets import DATASET_QUERIES


def collect(batches=3, windows_per_batch=20, cell_repeats=3):
    def measure(cell):
        reports = run_dataset(
            *cell, batches=batches, windows_per_batch=windows_per_batch
        )
        return average([r.throughput for r in reports.values()])

    cells = [(dataset, mode) for dataset in DATASET_QUERIES for mode in METHODS]
    throughput = best_of(cells, measure, lambda tps: -tps, cell_repeats)
    return {"throughput": throughput}


def _speedups(throughput):
    return {
        (dataset, mode): throughput[(dataset, mode)]
        / throughput[(dataset, "baseline")]
        for dataset in DATASET_QUERIES
        for mode in METHODS
    }


def report(result):
    speedups = _speedups(result["throughput"])
    table = Table(
        ["Dataset"] + [METHOD_LABELS[m] for m in METHODS],
        title="Fig. 5 -- throughput normalized to the uncompressed baseline",
    )
    for dataset in DATASET_QUERIES:
        table.add(
            DATASET_LABELS[dataset],
            *(f"{speedups[(dataset, mode)]:.2f}x" for mode in METHODS),
        )

    adaptive = [speedups[(d, "adaptive")] for d in DATASET_QUERIES]
    best_single = {
        d: max(
            (speedups[(d, m)], METHOD_LABELS[m])
            for m in METHODS
            if m not in ("baseline", "adaptive")
        )
        for d in DATASET_QUERIES
    }
    summary = Table(["Metric", "Value"], title="Headline numbers")
    summary.add(
        "CompressStreamDB average speedup", f"{average(adaptive):.2f}x (paper: 3.24x)"
    )
    for d in DATASET_QUERIES:
        ratio, name = best_single[d]
        summary.add(
            f"{DATASET_LABELS[d]}: CmpStr vs best single ({name} {ratio:.2f}x)",
            f"{speedups[(d, 'adaptive')]:.2f}x",
        )
    return [table.render(), summary.render()]


def check(result) -> None:
    speedups = _speedups(result["throughput"])
    # shape assertions from the paper, with generous slack for Python
    for dataset in DATASET_QUERIES:
        assert speedups[(dataset, "adaptive")] > 1.2, (
            f"adaptive must clearly beat baseline on {dataset}"
        )
        best_static = max(
            speedups[(dataset, m)]
            for m in METHODS
            if m not in ("baseline", "adaptive")
        )
        assert speedups[(dataset, "adaptive")] > 0.85 * best_static, (
            f"adaptive must be competitive with the best single codec on {dataset}"
        )


def bench_fig5_throughput():
    run_bench("fig5_throughput", collect, report, check)
