"""Ablation — time windows vs count windows on the same stream.

Not a paper figure: the paper evaluates count windows (Table III), but
Linear Road's "range 30" is semantically 30 *seconds*.  This bench runs
Q1 in both forms over the same smart-grid stream and checks that (a) the
compression benefit is window-form-independent (bytes on the wire are
identical — windows only shape the query stage), and (b) the time-window
scheduler's overhead stays modest.
"""

from common import Table, best_of, run_bench
from repro import CompressStreamDB, EngineConfig
from repro.core.calibration import default_calibration
from repro.datasets import smart_grid

#: ~200 readings/second in the generator: 5-second time windows hold
#: about as many tuples as a 1024-tuple count window
COUNT_Q = (
    "select timestamp, avg(value) as load from SmartGridStr "
    "[range 1024 slide 1024]"
)
TIME_Q = (
    "select timestamp, avg(value) as load from SmartGridStr "
    "[range 5 seconds slide 5]"
)


def _run(query, mode, batches, batch_size):
    engine = CompressStreamDB(
        {"SmartGridStr": smart_grid.SCHEMA},
        query,
        EngineConfig(mode=mode, calibration=default_calibration()),
    )
    return engine.run(smart_grid.source(batch_size=batch_size, batches=batches))


def collect(batches=4, batch_size=16384):
    queries = {"count": COUNT_Q, "time": TIME_Q}
    modes = ("baseline", "adaptive", "static:bd")
    return best_of(
        [(form, mode) for form in queries for mode in modes],
        lambda cell: _run(queries[cell[0]], cell[1], batches, batch_size),
        lambda rep: -rep.throughput,
    )


def report(results):
    table = Table(
        [
            "Window form",
            "Mode",
            "throughput tup/s",
            "query ms/batch",
            "bytes sent",
            "space saving",
        ],
        title="Ablation -- count vs time windows (Q1-shaped, same stream)",
    )
    for (form, mode), rep in results.items():
        table.add(
            form, mode,
            f"{rep.throughput:,.0f}",
            f"{rep.stage_seconds()['query'] / rep.profiler.batches * 1e3:.3f}",
            rep.profiler.bytes_sent,
            f"{rep.space_saving * 100:.1f}%",
        )
    return [table.render()]


def check(results):
    # (a) with a pinned codec, bytes are a property of the data alone —
    # the window form only shapes the query stage.  (Adaptive byte counts
    # may differ slightly: the time plan adds a needs-values use on the
    # timestamp column, which legitimately shifts selector estimates.)
    assert (
        results[("count", "static:bd")].profiler.bytes_sent
        == results[("time", "static:bd")].profiler.bytes_sent
    )
    # (b) compression wins under both window forms
    for form in ("count", "time"):
        assert (
            results[(form, "adaptive")].throughput
            > results[(form, "baseline")].throughput
        )
    # (c) the ragged scheduler's overhead stays modest, bounded end to
    # end.  Count windows are arithmetic on batch offsets, so their query
    # stage is ~0.1 ms/batch and the time path (it decodes timestamps and
    # searchsorts) costs ~3x that: a bound on the query stage alone rides
    # on sub-millisecond noise.  Adaptive time/count throughput measured
    # 0.68-0.91 single-shot and 0.88-0.89 best-of-3 on a 2-core x86 box;
    # 0.6 leaves room for a slower machine
    count_tp = results[("count", "adaptive")].throughput
    time_tp = results[("time", "adaptive")].throughput
    assert time_tp > 0.6 * count_tp, (time_tp, count_tp)


def bench_ablation_time_windows():
    run_bench("ablation_time_windows", collect, report, check)
