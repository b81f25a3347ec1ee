"""Run one workload: set-up, timed passes, checks, metrics by name.

End-to-end metrics come from passes with tracing off.  A traced run
(``--trace 1``) repeats the same passes with :mod:`spans` wrapped around
the layer boundaries and reports the per-layer metrics; the difference
between its traced and untraced passes is the tracing overhead.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import metrics
import numpy as np
import spans
import workloads
from workloads import Checker, PassResult

#: set-up is repeated so its median is steady; the warm-up pass is part of it
SETUP_REPEATS = 5
MIN_PASSES = 3

#: share of ``--seconds`` a traced run spends on untraced / traced passes
#: (one compression-off pass and one tracemalloc pass take the rest)
UNTRACED_SHARE = 0.3
TRACED_SHARE = 0.5

TRACE_DIR = Path("bench-json") / "ledger"

#: per-layer seconds: metric -> (which total, span names summed)
SPAN_SECONDS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "sql.plan_s": ("self", ("sql.parse", "sql.plan", "sql.plan_text")),
    "optimizer.optimize_s": (
        "self",
        ("optimizer.optimize", "optimizer.plan_for_engine"),
    ),
    "stats.column_stats_s": ("self", ("stats.column_stats",)),
    "selector.select_s": ("self", ("selector.select",)),
    "compression.encode_s": ("self", ("compression.encode",)),
    "compression.decode_s": ("self", ("compression.decode",)),
    "compression.view_s": ("self", ("compression.view",)),
    "client.compress_batch_s": ("inclusive", ("client.compress_batch",)),
    "client.self_s": ("self", ("client.compress_batch",)),
    "wire.serialize_s": ("self", ("wire.serialize",)),
    "wire.deserialize_s": ("self", ("wire.deserialize",)),
    "net.transport_self_s": ("self", ("net.send_batch", "net.transmit", "net.deliver")),
    "server.process_s": ("inclusive", ("server.process",)),
    "server.self_s": ("self", ("server.process",)),
    "decode_cache.decompress_s": (
        "self",
        ("decode_cache.decompress", "decode_cache.morph"),
    ),
    "executor.execute_s": ("inclusive", ("executor.execute",)),
    "executor.assembly_s": ("self", ("executor.execute",)),
    "operators.aggregate_s": ("self", ("operators.aggregate",)),
    "operators.groupby_s": ("self", ("operators.groupby",)),
    "operators.join_s": ("self", ("operators.join",)),
    "operators.distinct_s": ("self", ("operators.distinct",)),
    "operators.selection_s": ("self", ("operators.selection",)),
    "pipeline.run_s": ("inclusive", ("pipeline.run",)),
    "pipeline.self_s": ("self", ("pipeline.run",)),
    "serve.run_s": ("inclusive", ("serve.run",)),
    "serve.step_s": ("inclusive", ("serve.step",)),
    "serve.checkpoint_s": ("self", ("serve.state_bytes", "serve.checkpoint_save")),
    "serve.restore_s": ("inclusive", ("serve.restore",)),
    "serve.admission_s": ("self", ("serve.admit",)),
}

#: per-layer counts that are span call counts: metric -> span name
SPAN_CALLS = {
    "sql.plans": "sql.plan",
    "stats.calls": "stats.column_stats",
    "compression.encode_calls": "compression.encode",
    "compression.decode_calls": "compression.decode",
}

#: counts a span hook keeps: metric -> the span whose hook counts it
HOOK_SPANS = {
    "compression.fallbacks": "client.compress_batch",
    "wire.frames": "wire.serialize",
    "wire.frame_bytes": "wire.serialize",
    "server.direct_columns": "server.process",
    "server.decoded_columns": "server.process",
    "server.morphed_columns": "server.process",
    "serve.checkpoints": "serve.checkpoint_save",
    "serve.checkpoint_bytes": "serve.checkpoint_save",
}

Metrics = Dict[str, Optional[float]]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _run_passes(
    workload,
    state,
    checker: Checker,
    seconds: float,
    min_passes: int,
    tracer: Optional[spans.Tracer] = None,
) -> List[PassResult]:
    """Passes until ``seconds`` have gone by; outputs are checked and dropped."""
    results: List[PassResult] = []
    started = perf_counter()
    while len(results) < min_passes or perf_counter() - started < seconds:
        gc.collect()
        if tracer is None:
            result = workload.run_pass(state)
        else:
            with tracer.root():
                result = workload.run_pass(state)
            result.counts.update(tracer.take_counts())
        checker.check(result)
        result.outputs = {}
        results.append(result)
    return results


def _set_up(workload, offset: int, smoke: bool, repeats: int):
    """(state, median seconds) of generate-inputs + one warm-up pass."""
    took = []
    state = None
    for _ in range(repeats):
        gc.collect()
        started = perf_counter()
        state = workload.prepare(offset, smoke)
        workload.run_pass(state)
        took.append(perf_counter() - started)
    return state, statistics.median(took)


# ----- end to end ------------------------------------------------------------


def end_to_end(results: Sequence[PassResult], setup_s: float) -> Metrics:
    """Medians over passes; a burst that slows some passes leaves them alone."""
    p50, p95 = (
        statistics.median(
            float(np.percentile(r.op_latencies_s, q)) * 1e3 for r in results
        )
        for q in (50, 95)
    )
    return {
        "setup_s": setup_s,
        "e2e_tuples_per_s": statistics.median(
            r.tuples / (r.wall_s + r.link_s) for r in results
        ),
        "cpu_tuples_per_s": statistics.median(r.tuples / r.wall_s for r in results),
        "op_latency_p50_ms": p50,
        "op_latency_p95_ms": p95,
        "wire_bytes_per_tuple": statistics.median(
            r.bytes_sent / r.tuples for r in results
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# ----- per layer -------------------------------------------------------------


def pass_layers(
    totals: spans.SpanTotals, result: PassResult, unresolved: Sequence[str]
) -> Metrics:
    """The per-layer metrics one traced pass supports (None = unresolved)."""
    out: Metrics = {}
    for name, (kind, span_names) in SPAN_SECONDS.items():
        table = totals.self_s if kind == "self" else totals.inclusive_s
        if any(span in unresolved for span in span_names):
            out[name] = None
        else:
            out[name] = sum(table.get(span, 0.0) for span in span_names)
    for name, span in SPAN_CALLS.items():
        out[name] = None if span in unresolved else totals.calls.get(span, 0)
    # report and hook counts ride on the pass; a hook whose span is gone is null
    counts = result.counts
    out.update(counts)
    for name, span in HOOK_SPANS.items():
        if span in unresolved:
            out[name] = None

    out["compression.ratio"] = counts["bytes_uncompressed"] / result.bytes_sent
    encode_s = out["compression.encode_s"]
    out["compression.encode_mb_per_s"] = (
        counts["bytes_uncompressed"] / 1e6 / encode_s if encode_s else encode_s
    )
    served = [
        out[f"server.{path}_columns"] for path in ("direct", "decoded", "morphed")
    ]
    if None in served:
        out["server.direct_share"] = None
    else:
        out["server.direct_share"] = served[0] / sum(served) if sum(served) else 0.0
    run_s, step_s = out["serve.run_s"], out["serve.step_s"]
    if run_s is None or step_s is None:
        out["serve.supervision_s"] = out["serve.supervision_share"] = None
    else:
        out["serve.supervision_s"] = run_s - step_s
        out["serve.supervision_share"] = (run_s - step_s) / run_s if run_s else 0.0
    return out


def per_layer(
    by_pass: Dict[int, spans.SpanTotals],
    traced: Sequence[PassResult],
    unresolved: Sequence[str],
    extra: Metrics,
) -> Metrics:
    """Median over traced passes of every declared per-layer metric."""
    rows = [
        pass_layers(by_pass[index], result, unresolved)
        for index, result in enumerate(traced)
    ]
    out: Metrics = {}
    for layer in metrics.PER_LAYER:
        if layer.name in extra:
            out[layer.name] = extra[layer.name]
            continue
        # a layer the workload never enters has no count: it reads 0
        column = [row.get(layer.name, 0) for row in rows]
        out[layer.name] = None if None in column else statistics.median(column)
    return out


def _peak_traced_mb(run_pass: Callable[[], PassResult]) -> float:
    """Peak Python-heap growth of one pass (tracing starts after set-up)."""
    gc.collect()
    tracemalloc.start()
    try:
        run_pass()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6


# ----- one workload ------------------------------------------------------------


def _print_table(title: str, rows: Sequence[Tuple[str, str, str, str]]) -> None:
    print(title)
    width = max(len(row[0]) for row in rows)
    for name, value, unit, note in rows:
        print(f"  {name:<{width}}  {value:>16} {unit:<9} {note}".rstrip())


def _format(value: Optional[float]) -> str:
    if value is None:
        return "null"
    return f"{value:,.6g}" if abs(value) < 1e6 else f"{value:,.0f}"


def _untraced_run(workload, state, checker, seconds, min_passes, setup_s, setup_note):
    results = _run_passes(workload, state, checker, seconds, min_passes)
    walls = quartiles([r.wall_s for r in results])
    notes = {
        "setup_s": setup_note,
        "cpu_tuples_per_s": (
            f"{len(results)} passes, pass wall q1/q2/q3 "
            f"{walls[0]:.4f}/{walls[1]:.4f}/{walls[2]:.4f} s"
        ),
        "op_latency_p50_ms": (
            f"median over passes of each pass's percentile, "
            f"{len(results[0].op_latencies_s)} ops per pass"
        ),
    }
    return end_to_end(results, setup_s), notes


def _throughputs(results: Sequence[PassResult]) -> Tuple[float, float]:
    """(end-to-end, cpu-only) median tuples/s."""
    return (
        statistics.median(r.tuples / (r.wall_s + r.link_s) for r in results),
        statistics.median(r.tuples / r.wall_s for r in results),
    )


def _traced_run(workload, state, checker, seconds, min_passes, trace_path: Path):
    untraced = _run_passes(
        workload, state, checker, seconds * UNTRACED_SHARE, min_passes
    )
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = _run_passes(
            workload, state, checker, seconds * TRACED_SHARE, min_passes, tracer
        )
    finally:
        tracer.uninstall()
    plain_wall = statistics.median(r.wall_s for r in untraced)
    traced_wall = statistics.median(r.wall_s for r in traced)
    extra: Metrics = {
        "trace.overhead_share": (traced_wall - plain_wall) / plain_wall,
        "mem.peak_traced_mb": _peak_traced_mb(lambda: workload.run_pass(state)),
        "pipeline.speedup_vs_baseline": 0.0,
    }
    notes = {}
    baseline = workload.baseline_state(state)
    if baseline is not None:
        on_e2e, on_cpu = _throughputs(untraced)
        off_e2e, off_cpu = _throughputs([workload.run_pass(baseline)])
        extra["pipeline.speedup_vs_baseline"] = on_e2e / off_e2e
        notes["pipeline.speedup_vs_baseline"] = (
            f"link time included; on CPU alone the ratio is {on_cpu / off_cpu:.2f}"
        )
    by_pass = spans.totals_by_pass(tracer.spans)
    values = per_layer(by_pass, traced, tracer.unresolved, extra)

    last_pass = len(traced) - 1
    written = spans.write_chrome_trace(tracer.spans, last_pass, trace_path)
    notes["trace.overhead_share"] = (
        f"{len(untraced)} untraced / {len(traced)} traced passes, "
        f"{written} spans of the last pass in {trace_path}"
    )
    last = by_pass[last_pass]
    for root in ("pipeline.run", "serve.run"):
        run_s = last.inclusive_s.get(root)
        if run_s:
            notes[f"{root}_s"] = (
                f"{1 - last.self_s[root] / run_s:.1%} of it (last pass) is "
                "attributed to the layers below it"
            )
    if last.inclusive_s.get("pipeline.run"):
        unseen = last.self_s.get("stats.column_stats", 0.0) + last.self_s.get(
            "selector.select", 0.0
        )
        notes["selector.select_s"] = (
            f"stats + selection are {unseen / last.inclusive_s['pipeline.run']:.1%} "
            "of pipeline.run_s and outside RunReport.total_seconds"
        )
    if tracer.unresolved:
        notes["sql.plan_s"] = f"unresolved spans: {', '.join(tracer.unresolved)}"
    return values, notes


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool, import_s: float
) -> dict:
    """Measure one workload and print its metrics; returns the contract result."""
    workload = workloads.WORKLOADS[name]
    min_passes = 1 if smoke else MIN_PASSES
    repeats = 1 if (smoke or trace) else SETUP_REPEATS
    state, setup_median = _set_up(workload, seed, smoke, repeats)
    checker = Checker(workload.reference(state))
    if trace:
        declared = [(m.name, m.unit) for m in metrics.PER_LAYER]
        trace_path = TRACE_DIR / f"{name}.seed{seed}.trace.json"
        values, notes = _traced_run(
            workload, state, checker, seconds, min_passes, trace_path
        )
    else:
        declared = [(m.name, m.unit) for m in metrics.END_TO_END]
        values, notes = _untraced_run(
            workload,
            state,
            checker,
            seconds,
            min_passes,
            import_s + setup_median,
            f"import {import_s:.3f} s + median of {repeats} set-ups",
        )

    _print_table(
        f"{name} (seed {seed}, {'traced' if trace else 'untraced'})",
        [
            (metric, _format(values[metric]), unit, notes.get(metric, ""))
            for metric, unit in declared
        ],
    )
    for note in checker.notes:
        print(f"  MISMATCH {note}", file=sys.stderr)
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            # the contract wants a number: an unresolved span reads 0 here
            # and `null` in the table above
            metric: {"value": values[metric] or 0.0, "unit": unit}
            for metric, unit in declared
        },
    }
