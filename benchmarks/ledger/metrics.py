"""The ledger's declared metrics, workloads and how they interact.

``BENCHMARK.json`` at the repo root is the machine contract (name, unit,
direction, bound); this module is the same list with the two things that
contract has no key for: what each metric *means* and which end-to-end
metric, on which workload, a per-layer metric is expected to move.  The
predictions were written before measuring; on every workload a ``moves``
string does not name, the prediction is *no change*.
``test_ledger.py`` holds the two files to each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

HIGHER = "higher"
LOWER = "lower"

#: workload name -> the one-sentence reason it exists (BENCHMARK.json `why`)
WORKLOADS: Dict[str, str] = {
    "agg_tumbling": (
        "Q1 tumbling avg on smart-grid: codec/selector/link-bound, the query "
        "stage is <10% of CPU, so encode, selection and ratio changes show and "
        "operator work does not."
    ),
    "groupby_tumbling": (
        "Q2 3-key group-by over the same bytes as agg_tumbling: bound on "
        "operators.groupby, so codec changes move it little and group-by or "
        "late-materialization changes a lot."
    ),
    "join_distinct": (
        "Q3 self-join + distinct on linear-road: Python-bound probe, distinct "
        "and row assembly; codecs and link are <5%, the bypass workload for "
        "every codec or wire change."
    ),
    "agg_sliding": (
        "Q1 at slide 1: same aggregate and scheduler used per tuple with a "
        "cross-batch buffer; sliding kernels and result assembly dominate, an "
        "incremental-sliding change must win here."
    ),
    "dynamic_filter": (
        "OR-equality filter over the phase-shifting stream, cascade pool, "
        "re-decide every 4: many re-decisions and codec flips plus run/plane "
        "views; steady-state-only speed-ups show as a gap."
    ),
    "corpus_replay": (
        "Every corpus query from SQL text to merged output over 2-4 small "
        "batches: parse/bind/optimize and pipeline construction are the op; "
        "only here can a front-end refactor show."
    ),
    "serve_fleet": (
        "16 tenants through ServeSupervisor with lossy links, checkpoints and "
        "one crash: the first wall-clock number for supervision, framed "
        "transport and pickled checkpoints."
    ),
}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: share of the parent's median by which the metric may worsen
    bound: float
    meaning: str


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    #: which end-to-end metric on which workload this is expected to move
    moves: str
    #: a count that must repeat exactly between two runs with one seed
    exact: bool = False


_OP = (
    "an op is one batch (streams), one query from SQL text to merged output "
    "(corpus_replay) or one admitted step (serve_fleet)"
)

END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd(
        "setup_s",
        "s",
        LOWER,
        0.25,
        "import time + median of 5 x (load the pinned calibration, generate "
        "inputs, one warm-up pass)",
    ),
    EndToEnd(
        "e2e_tuples_per_s",
        "tuples/s",
        HIGHER,
        0.20,
        "tuples / (wall seconds of a pass timed from outside + the pass's "
        "virtual link seconds): the paper's throughput with untimed "
        "selection and glue included; median over passes",
    ),
    EndToEnd(
        "cpu_tuples_per_s",
        "tuples/s",
        HIGHER,
        0.20,
        "tuples (delivered tuples for the fleet) / wall seconds of a pass; "
        "median over passes",
    ),
    EndToEnd(
        "op_latency_p50_ms",
        "ms",
        LOWER,
        0.20,
        "wall time the engine holds an op + that op's virtual link seconds: "
        "each pass's median, median over passes; " + _OP,
    ),
    EndToEnd(
        "op_latency_p95_ms",
        "ms",
        LOWER,
        0.24,
        "each pass's 95th percentile, median over passes (a burst that slows "
        "a few passes cannot move it); on the streams it is the re-decision "
        "tail by construction (1 batch in 16, 1 in 4 on dynamic_filter)",
    ),
    EndToEnd(
        "wire_bytes_per_tuple",
        "B",
        LOWER,
        0.05,
        "bytes charged to the link / tuples; an exact count under the pinned "
        "calibration, retransmissions included",
    ),
    EndToEnd(
        "peak_rss_mb",
        "MB",
        LOWER,
        0.10,
        "ru_maxrss of the workload's interpreter",
    ),
)

_SELECT = (
    "cpu_tuples_per_s, e2e_tuples_per_s, op_latency_p95_ms on agg_tumbling "
    "and dynamic_filter; <3% of join_distinct"
)
_RATIO = (
    "wire_bytes_per_tuple and e2e_tuples_per_s (not cpu_tuples_per_s) on "
    "agg_tumbling and dynamic_filter; a ratio bought with CPU moves the two "
    "throughputs in opposite directions"
)
_GROUPBY = "cpu_tuples_per_s, op_latency_p50_ms on groupby_tumbling"
_JOIN = "every end-to-end metric on join_distinct"
_SLIDING = "agg_sliding; agg_tumbling must stay inside its bound"
_DYNAMIC = "cpu_tuples_per_s, op_latency_p50_ms on dynamic_filter"
_FRONT = "op_latency_p50_ms, cpu_tuples_per_s on corpus_replay only"
_SERVE = "cpu_tuples_per_s, op_latency_p50_ms on serve_fleet"
_STEP = "serve_fleet; the only way engine-layer gains reach cpu_tuples_per_s there"
_INFO = "informational: moves nothing by itself"

PER_LAYER: Tuple[PerLayer, ...] = (
    PerLayer("sql.plan_s", "s", LOWER, _FRONT),
    PerLayer("sql.plans", "count", LOWER, _FRONT, exact=True),
    PerLayer("optimizer.optimize_s", "s", LOWER, _FRONT),
    PerLayer("optimizer.rules_fired", "count", HIGHER, _FRONT, exact=True),
    PerLayer("stats.column_stats_s", "s", LOWER, _SELECT),
    PerLayer("stats.calls", "count", LOWER, _SELECT, exact=True),
    PerLayer("selector.select_s", "s", LOWER, _SELECT),
    PerLayer("selector.reselections", "count", LOWER, _SELECT, exact=True),
    PerLayer("selector.codec_switches", "count", LOWER, _SELECT, exact=True),
    PerLayer("compression.encode_s", "s", LOWER, _SELECT),
    PerLayer("compression.encode_calls", "count", LOWER, _SELECT, exact=True),
    PerLayer("compression.encode_mb_per_s", "MB/s", HIGHER, _SELECT),
    PerLayer("compression.decode_s", "s", LOWER, _DYNAMIC),
    PerLayer("compression.decode_calls", "count", LOWER, _DYNAMIC, exact=True),
    PerLayer("compression.view_s", "s", LOWER, _GROUPBY),
    PerLayer("compression.ratio", "ratio", HIGHER, _RATIO, exact=True),
    PerLayer("compression.fallbacks", "count", LOWER, _RATIO, exact=True),
    PerLayer("client.compress_batch_s", "s", LOWER, _SELECT),
    PerLayer("client.self_s", "s", LOWER, _SELECT),
    PerLayer("wire.serialize_s", "s", LOWER, _SERVE),
    PerLayer("wire.deserialize_s", "s", LOWER, _SERVE),
    PerLayer("wire.frames", "count", LOWER, _SERVE, exact=True),
    PerLayer("wire.frame_bytes", "B", LOWER, _SERVE, exact=True),
    PerLayer("net.transmit_virtual_s", "s", LOWER, _RATIO, exact=True),
    PerLayer("net.transport_self_s", "s", LOWER, _SERVE),
    PerLayer("net.retries", "count", LOWER, _SERVE, exact=True),
    PerLayer("net.quarantined", "count", LOWER, _SERVE, exact=True),
    PerLayer("server.process_s", "s", LOWER, _GROUPBY),
    PerLayer("server.self_s", "s", LOWER, _GROUPBY),
    PerLayer("server.direct_columns", "count", HIGHER, _DYNAMIC, exact=True),
    PerLayer("server.decoded_columns", "count", LOWER, _DYNAMIC, exact=True),
    PerLayer("server.morphed_columns", "count", HIGHER, _DYNAMIC, exact=True),
    PerLayer("server.direct_share", "fraction", HIGHER, _DYNAMIC, exact=True),
    PerLayer("decode_cache.decompress_s", "s", LOWER, _DYNAMIC),
    PerLayer("decode_cache.hits", "count", HIGHER, _DYNAMIC, exact=True),
    PerLayer("decode_cache.misses", "count", LOWER, _DYNAMIC, exact=True),
    PerLayer("decode_cache.evictions", "count", LOWER, _DYNAMIC, exact=True),
    PerLayer("decode_cache.morph_hits", "count", HIGHER, _DYNAMIC, exact=True),
    PerLayer("decode_cache.morph_misses", "count", LOWER, _DYNAMIC, exact=True),
    PerLayer("executor.execute_s", "s", LOWER, _JOIN + "; " + _SLIDING),
    PerLayer("executor.assembly_s", "s", LOWER, _JOIN + "; " + _SLIDING),
    PerLayer("executor.rows_out", "count", LOWER, _INFO, exact=True),
    PerLayer("operators.aggregate_s", "s", LOWER, _SLIDING),
    PerLayer("operators.groupby_s", "s", LOWER, _GROUPBY),
    PerLayer("operators.join_s", "s", LOWER, _JOIN),
    PerLayer("operators.distinct_s", "s", LOWER, _JOIN),
    PerLayer("operators.selection_s", "s", LOWER, _DYNAMIC),
    PerLayer("pipeline.run_s", "s", LOWER, "cpu_tuples_per_s on the streams"),
    PerLayer("pipeline.self_s", "s", LOWER, _FRONT),
    PerLayer("pipeline.speedup_vs_baseline", "ratio", HIGHER, _INFO),
    PerLayer("serve.run_s", "s", LOWER, _SERVE),
    PerLayer("serve.step_s", "s", LOWER, _STEP),
    PerLayer("serve.supervision_s", "s", LOWER, _SERVE),
    PerLayer("serve.supervision_share", "fraction", LOWER, _SERVE),
    PerLayer("serve.checkpoint_s", "s", LOWER, _SERVE),
    PerLayer("serve.checkpoints", "count", LOWER, _SERVE, exact=True),
    PerLayer("serve.checkpoint_bytes", "B", LOWER, _SERVE, exact=True),
    PerLayer("serve.restore_s", "s", LOWER, _SERVE),
    PerLayer("serve.admission_s", "s", LOWER, _SERVE),
    PerLayer("serve.admitted_steps", "count", LOWER, _SERVE, exact=True),
    PerLayer("serve.deferred_steps", "count", LOWER, _SERVE, exact=True),
    PerLayer("serve.restarts", "count", LOWER, _SERVE, exact=True),
    PerLayer("serve.breaker_trips", "count", LOWER, _SERVE, exact=True),
    PerLayer("serve.dead_letters", "count", LOWER, _SERVE, exact=True),
    PerLayer("mem.peak_traced_mb", "MB", LOWER, "peak_rss_mb on every workload"),
    PerLayer("trace.overhead_share", "fraction", LOWER, _INFO),
)
