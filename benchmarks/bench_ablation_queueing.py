"""Ablation — link saturation and queueing (the Fig. 10 "system pauses").

With an arrival-rate model and a serial link, an uncompressed stream that
outpaces the link accumulates queueing delay batch after batch; the same
stream compressed fits the link and the queue never forms.  This isolates
the stability benefit of compression that the paper's bandwidth-limited
latency curves imply.
"""

from common import Table, run_bench
from repro import CompressStreamDB, EngineConfig, SystemParams
from repro.datasets import QUERIES

#: the stream produces tuples faster than the thin link can ship them raw
ARRIVAL_TPS = 2e5
BANDWIDTH_MBPS = 30.0


def _run(mode, batches, windows_per_batch):
    q1 = QUERIES["q1"]
    engine = CompressStreamDB(
        q1.catalog,
        q1.text(slide=q1.window),
        EngineConfig(
            mode=mode,
            bandwidth_mbps=BANDWIDTH_MBPS,
            params=SystemParams(arrival_rate_tps=ARRIVAL_TPS),
        ),
    )
    src = q1.make_source(batch_size=q1.window * windows_per_batch, batches=batches)
    pipeline = engine.make_pipeline()
    report = pipeline.run(src)
    return report, pipeline.channel


def collect(batches=10, windows_per_batch=8):
    return {
        mode: _run(mode, batches, windows_per_batch)
        for mode in ("baseline", "static:ns", "adaptive")
    }


def report(results):
    table = Table(
        [
            "Method",
            "offered load vs link",
            "queue s total",
            "trans s total",
            "avg latency ms",
        ],
        title="Ablation -- queueing under link saturation "
              f"({BANDWIDTH_MBPS:.0f} Mbps link, {ARRIVAL_TPS:,.0f} tuples/s)",
    )
    q1 = QUERIES["q1"]
    raw_bps = ARRIVAL_TPS * q1.schema.tuple_bytes * 8
    for mode, (rep, channel) in results.items():
        offered = raw_bps / rep.compression_ratio / (BANDWIDTH_MBPS * 1e6)
        table.add(
            mode,
            f"{offered:.2f}x",
            f"{channel.queue_seconds:.3f}",
            f"{rep.stage_seconds()['trans']:.3f}",
            f"{rep.avg_latency * 1e3:.2f}",
        )
    note = (
        "Offered load >1x means the link cannot drain the stream: the "
        "uncompressed baseline queues ever-deeper, while compression brings "
        "the offered load under 1x and the queue vanishes."
    )
    return [table.render(), note]


def check(results):
    base_rep, base_ch = results["baseline"]
    comp_rep, comp_ch = results["adaptive"]
    assert base_ch.queue_seconds > 0, "baseline must saturate the link"
    assert comp_ch.queue_seconds < base_ch.queue_seconds * 0.2
    assert comp_rep.avg_latency < base_rep.avg_latency


def bench_ablation_queueing():
    run_bench("ablation_queueing", collect, report, check)
