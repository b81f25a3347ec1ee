"""Optimizer — pushdown + run fusion beat the naive plan on a filtered agg.

Shape: a Q2-style filter-heavy query (a windowed ``avg(value)`` over the
smart-grid schema with a selective single-column WHERE, no group-by) runs
under ``static:rle`` on a stream whose ``value`` column arrives in long
appliance-state runs.  The optimizer must fire predicate pushdown and
filter+aggregate fusion on this plan; the fused executor then evaluates
the predicate once per run instead of once per row and keeps the
surviving column in run form for the affine aggregate.  The gated metric
is the query-stage speedup of the optimized plan over the same engine
with ``optimize=False`` — the escape hatch makes the comparison exact:
identical codecs, identical bytes on the wire, identical answers, only
the plan differs.

Wall-clock noise can only slow a leg down, never speed it up, so
best-of-``cell_repeats`` per leg is the robust estimator
(``common.best_of``, as in every wall-clock bench).
"""

import numpy as np
from common import Table, best_of, run_bench
from repro import CompressStreamDB, EngineConfig
from repro.core.calibration import default_calibration
from repro.datasets import smart_grid
from repro.stream.source import GeneratorSource

#: appliance-state run length of the synthetic trace (plugs hold a power
#: state for ~a minute of readings); well above the fusion rule's
#: run-length floor, and what makes RLE the right pinned codec here
RUN_LENGTH = 64

#: Q2-style filter-heavy shape: windowed aggregate over the filtered
#: column itself, no grouping — exactly the fusion rule's target
SQL = (
    "select avg(value) as avgLoad from SmartGridStr "
    "[range 1024 slide 1024] where value < 3.0"
)

REQUIRED_RULES = ("pushdown", "fusion")


def _generate(n, seed):
    """Smart-grid readings with ``value`` arriving in long state runs."""
    rng = np.random.default_rng(seed)
    n_runs = n // RUN_LENGTH + 1
    # draw from the standby + low-electronics states so the `< 3.0` WHERE
    # is selective (~1/8 of runs survive) but never degenerate-empty
    states = smart_grid._POWER_STATES[rng.integers(0, 24, size=n_runs)]
    cols = smart_grid.generate(n, seed=seed)
    cols["value"] = np.repeat(states, RUN_LENGTH)[:n]
    return cols


def _source(batch_size, batches, seed=3):
    return GeneratorSource(
        smart_grid.SCHEMA,
        lambda index: _generate(batch_size, seed + index),
        limit=batches,
    )


def _engine(optimize):
    return CompressStreamDB(
        {"SmartGridStr": smart_grid.SCHEMA},
        SQL,
        EngineConfig(
            mode="static:rle",
            bandwidth_mbps=500,
            calibration=default_calibration(),
            optimize=optimize,
        ),
    )


def collect(batches=4, windows_per_batch=20, cell_repeats=3):
    batch_size = 1024 * windows_per_batch

    def leg(optimize):
        engine = _engine(optimize)
        rep = engine.run(_source(batch_size, batches), collect_outputs=True)
        info = getattr(engine._base_plan, "opt", None)
        return rep.stage_seconds()["query"], rep, info

    legs = best_of((False, True), leg, lambda result: result[0], cell_repeats)
    return {"legs": legs}


def report(result):
    (naive_s, naive_rep, _) = result["legs"][False]
    (opt_s, opt_rep, info) = result["legs"][True]
    table = Table(
        ["Plan", "query ms/batch", "throughput tup/s", "rules fired"],
        title="Optimizer -- fused filtered aggregate vs the naive plan "
              "(static:rle, runny smart-grid values)",
    )
    batches = naive_rep.profiler.batches
    table.add(
        "naive (optimize=False)",
        f"{naive_s / batches * 1e3:.3f}",
        f"{naive_rep.throughput:,.0f}",
        "-",
    )
    table.add(
        "optimized",
        f"{opt_s / batches * 1e3:.3f}",
        f"{opt_rep.throughput:,.0f}",
        ", ".join(info.rules_fired) if info else "-",
    )
    return [
        table.render(),
        f"query-stage speedup {naive_s / opt_s:.2f}x "
        f"(estimated cost {info.estimated_cost:,.0f} vs baseline "
        f"{info.baseline_cost:,.0f})" if info else "no optimizer info",
    ]


def check(result):
    (naive_s, naive_rep, _) = result["legs"][False]
    (opt_s, opt_rep, info) = result["legs"][True]
    # the plan must actually have been rewritten by the gated rules
    assert info is not None and not info.fallback, info
    for rule in REQUIRED_RULES:
        assert rule in info.rules_fired, (rule, info.rules_fired)
    # cost model agrees the rewrite wins ...
    assert info.estimated_cost < info.baseline_cost, info
    # ... and the wire + answers are untouched: same bytes, same results
    assert naive_rep.profiler.bytes_sent == opt_rep.profiler.bytes_sent
    a, b = naive_rep.outputs, opt_rep.outputs
    assert a is not None and b is not None
    assert a.n_rows == b.n_rows and sorted(a.columns) == sorted(b.columns)
    for name in a.columns:
        assert np.allclose(a.columns[name], b.columns[name]), name
    # the tentpole gate: pushdown + fusion beat the unoptimized plan
    assert opt_s < naive_s, (opt_s, naive_s)


def bench_optimizer():
    run_bench("optimizer_pushdown_fusion", collect, report, check)
