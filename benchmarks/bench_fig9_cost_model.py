"""Fig. 9 — accuracy of the system cost model on the Smart Grid workload.

For every processing method, the cost model's estimated per-batch time
(Eqs. 1-9, with calibrated codec coefficients and the measured baseline
query profile) is compared against the measured per-batch time.  Paper
shape: estimates track measurements with ~88 % average accuracy, estimates
slightly below measurements (model ignores engine overheads).
"""

from common import METHOD_LABELS, METHODS, Table, average, run_bench, run_query
from repro import CompressStreamDB
from repro.compression import get_codec
from repro.core import CostModel, SystemParams, column_stats_from_batches
from repro.core.calibration import default_calibration
from repro.core.pipeline import measure_query_profile
from repro.datasets import QUERIES
from repro.net import Channel

QNAME = "q1"


def _model_inputs(windows_per_batch):
    """Stats, plan and measured profile shared by the static estimates."""
    q = QUERIES[QNAME]
    batches = list(
        q.make_source(batch_size=q.window * windows_per_batch, batches=2, seed=11)
    )
    stats = column_stats_from_batches(batches, q.schema)
    plan = CompressStreamDB(q.catalog, q.text(slide=q.window)).plan
    measure_query_profile(plan, batches[0], SystemParams().memory_fraction)
    model = CostModel(
        default_calibration(), SystemParams(), Channel(bandwidth_mbps=500)
    )
    return stats, plan, model, batches


def _estimate(mode, windows_per_batch):
    """Cost-model estimate of the per-batch time under one static method."""
    stats, plan, model, batches = _model_inputs(windows_per_batch)
    if mode == "baseline":
        codec_name = "identity"
    elif mode.startswith("static:"):
        codec_name = mode.split(":")[1]
    else:
        return None  # adaptive estimated as the per-column argmin below
    codec = get_codec(codec_name)
    choices = {
        name: codec if codec.applicable(stats[name]) else get_codec("identity")
        for name in stats
    }
    return model.estimate_batch(choices, stats, batches[0].n, plan.profile).total


def _estimate_adaptive(windows_per_batch):
    """Adaptive estimate: per-column minimum over the pool (the selector)."""
    from repro.core import AdaptiveSelector

    stats, plan, model, batches = _model_inputs(windows_per_batch)
    choices = AdaptiveSelector(model).select(stats, plan.profile, batches[0].n)
    return model.estimate_batch(choices, stats, batches[0].n, plan.profile).total


def collect(batches=4, windows_per_batch=20):
    results = {}
    for mode in METHODS:
        measured = run_query(
            QNAME, mode, batches=batches, windows_per_batch=windows_per_batch
        )
        measured_per_batch = measured.total_seconds / measured.profiler.batches
        estimated = (
            _estimate_adaptive(windows_per_batch)
            if mode == "adaptive"
            else _estimate(mode, windows_per_batch)
        )
        results[mode] = (estimated, measured_per_batch)
    return results


def _accuracies(results):
    return [
        1 - abs(est - meas) / meas for est, meas in (results[m] for m in METHODS)
    ]


def report(results):
    table = Table(
        ["Method", "estimated ms", "measured ms", "accuracy"],
        title="Fig. 9 -- cost model accuracy (Smart Grid, Q1, 500 Mbps)",
    )
    for mode in METHODS:
        est, meas = results[mode]
        accuracy = 1 - abs(est - meas) / meas
        table.add(
            METHOD_LABELS[mode],
            f"{est * 1e3:.3f}",
            f"{meas * 1e3:.3f}",
            f"{accuracy * 100:.1f}%",
        )
    summary = (
        f"average accuracy: {average(_accuracies(results)) * 100:.1f}% "
        "(paper: 88.2%)"
    )
    return [table.render(), summary]


def check(results):
    assert average(_accuracies(results)) > 0.6, "cost model must track measurements"


def bench_fig9_cost_model():
    run_bench("fig9_cost_model", collect, report, check)
