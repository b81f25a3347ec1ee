"""Shared benchmark helpers: paper workloads and the one bench runner.

Every ``bench_*.py`` regenerates one table or figure of the paper
(DESIGN.md §4) as three functions — ``collect`` (measure, defaults are
the full-scale parameters), ``report`` (render text blocks) and
``check`` (assert the paper's shape) — plus one pytest function,
``bench_<name>``, that hands them to :func:`run_bench`.  Run them all
with ``PYTHONPATH=src python -m pytest benchmarks -q``, one with
``-k fig5`` (see docs/benchmarking.md).  Rendered tables land in
``benchmarks/results/<name>.txt``.

Scale: ``REPRO_BENCH_SCALE`` (default 1) multiplies batch counts; the
defaults are sized to finish each file in seconds in pure Python while
preserving the paper's per-batch geometry (window size and
windows-per-batch).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Callable, Dict, Hashable, Optional, Sequence

from repro import CompressStreamDB, EngineConfig, RunReport
from repro.datasets import DATASET_QUERIES, QUERIES
from repro.reporting import TextTable as Table

__all__ = [
    "DATASET_LABELS",
    "METHOD_LABELS",
    "METHODS",
    "RESULTS_DIR",
    "Table",
    "average",
    "best_of",
    "run_bench",
    "run_dataset",
    "run_query",
    "scale",
]

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: the ten processing methods of Figs. 5/6 and Table IV, in paper order
METHODS = (
    "baseline",
    "static:bd",
    "static:bitmap",
    "static:dict",
    "static:rle",
    "static:eg",
    "static:ed",
    "static:ns",
    "static:nsv",
    "adaptive",
)

METHOD_LABELS = {
    "baseline": "Baseline",
    "static:bd": "BD",
    "static:bitmap": "Bitmap",
    "static:dict": "DICT",
    "static:rle": "RLE",
    "static:eg": "EG",
    "static:ed": "ED",
    "static:ns": "NS",
    "static:nsv": "NSV",
    "adaptive": "CompressStreamDB",
}

DATASET_LABELS = {
    "smart_grid": "Smart Grid",
    "linear_road": "Linear Road Benchmark",
    "cluster": "Cluster Monitoring",
}


def scale() -> int:
    return max(int(os.environ.get("REPRO_BENCH_SCALE", "1")), 1)


def run_bench(
    name: str,
    collect: Callable[[], Any],
    report: Callable[[Any], Sequence[str]],
    check: Callable[[Any], None],
) -> None:
    """Run one bench at full scale: print and persist its tables, then check.

    The tables are written to ``results/<name>.txt`` before ``check``
    runs, so a failing shape assertion still leaves the numbers behind.
    """
    result = collect()
    text = "\n\n".join(report(result)) + "\n"
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text)
    check(result)


def best_of(
    cells: Sequence[Hashable],
    measure: Callable[[Any], Any],
    cost: Callable[[Any], float],
    repeats: int = 3,
) -> Dict[Any, Any]:
    """The lowest-``cost`` of ``repeats`` measurements of every cell.

    Wall-clock noise only ever slows a run down, so the best of N is the
    robust estimate.  Each round sweeps every cell, so a slow spell on a
    shared machine lands on all of them instead of sinking one.
    """
    best: Dict[Any, Any] = {}
    for _ in range(repeats):
        for cell in cells:
            result = measure(cell)
            if cell not in best or cost(result) < cost(best[cell]):
                best[cell] = result
    return best


def run_query(
    qname: str,
    mode: str,
    bandwidth_mbps: Optional[float] = 500.0,
    batches: int = 3,
    windows_per_batch: int = 20,
    redecide_every: int = 16,
    seed: int = 11,
) -> RunReport:
    """Run one Table III query end-to-end in one processing mode.

    Uses tumbling windows (slide = window) so a batch holds exactly
    ``windows_per_batch`` windows, the paper's batch geometry.
    """
    q = QUERIES[qname]
    engine = CompressStreamDB(
        q.catalog,
        q.text(slide=q.window),
        EngineConfig(
            mode=mode,
            bandwidth_mbps=bandwidth_mbps,
            redecide_every=redecide_every,
        ),
    )
    source = q.make_source(
        batch_size=q.window * windows_per_batch,
        batches=batches * scale(),
        seed=seed,
    )
    return engine.run(source)


def run_dataset(dataset: str, mode: str, **kwargs) -> Dict[str, RunReport]:
    """Run both queries of a dataset; the paper reports their average."""
    return {
        qname: run_query(qname, mode, **kwargs) for qname in DATASET_QUERIES[dataset]
    }


def average(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0
