"""The seven ledger workloads: inputs, one timed pass, reference outputs.

Load model: closed loop, one process, one thread, one caller.  A *pass*
takes a query from SQL text to its merged output over inputs that were
materialized in set-up — ``CompressStreamDB(...)`` + ``Pipeline.run`` for
the streams and the corpus, ``ServeSupervisor(...)`` + ``run()`` for the
fleet — and is timed from outside, so stats, codec selection and glue
that ``RunReport.total_seconds`` never sees are inside the number.

Everything runs on the pinned calibration table next to this file
(``default_calibration()`` micro-benchmarks codecs per process and codec
choices flip between processes), with ``profile_query=False``, a 500 Mbps
virtual link and the optimizer on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import fleet_queries
import numpy as np

from repro.core.calibration import CalibrationTable
from repro.core.engine import CompressStreamDB, EngineConfig
from repro.datasets import smart_grid
from repro.datasets.queries import QUERIES
from repro.net.faults import FaultProfile
from repro.net.transport import ReliabilityConfig
from repro.oracle.differential import compare_results
from repro.serve import ServeSupervisor, TenantSpec, VirtualClock
from repro.sql.executor import QueryResult
from repro.stream.batch import Batch
from repro.stream.schema import Schema
from repro.workloads.corpus import QUERIES as CORPUS
from repro.workloads.fixtures import check_fixture

CALIBRATION_PATH = Path(__file__).resolve().parent / "pinned_calibration.json"

DYNAMIC_FILTER_SQL = (
    "select timestamp, avg(value) as load "
    "from SmartGridStr [range 1024 slide 1024] "
    "where house == 3 or house == 17 or house == 29"
)


def load_calibration() -> CalibrationTable:
    return CalibrationTable.load(CALIBRATION_PATH)


def engine_config(
    calibration: CalibrationTable, mode: str = "adaptive", redecide_every: int = 16
) -> EngineConfig:
    return EngineConfig(
        mode=mode,
        calibration=calibration,
        redecide_every=redecide_every,
        profile_query=False,
        bandwidth_mbps=500.0,
        optimize=True,
    )


# ----- what a pass reports -------------------------------------------------


@dataclass
class PassResult:
    """One pass, timed from outside, plus what its public reports say."""

    wall_s: float = 0.0
    #: virtual link seconds (transmission + lazy-codec wait) of the pass
    link_s: float = 0.0
    tuples: int = 0
    bytes_sent: int = 0
    #: wall seconds the engine held each op + that op's virtual link seconds
    op_latencies_s: List[float] = field(default_factory=list)
    #: ops attempted and ops the engine itself reports lost (quarantined,
    #: shed, dead-lettered); wrong answers are added by the checker
    attempted: int = 0
    lost: int = 0
    #: merged output per checked unit, with how many ops ride on it
    outputs: Dict[str, QueryResult] = field(default_factory=dict)
    ops_per_output: Dict[str, int] = field(default_factory=dict)
    #: counts read from the public report objects (exact under one seed)
    counts: Dict[str, float] = field(default_factory=dict)
    #: codec decision log per op / tenant (must repeat under one seed)
    decisions: Dict[str, List[Dict[str, str]]] = field(default_factory=dict)


@dataclass
class Reference:
    """Decode-first outputs the passes are compared against."""

    outputs: Dict[str, QueryResult]
    #: checks made while building the reference (committed fixtures)
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)


def _same_rows(a: QueryResult, b: QueryResult) -> bool:
    """Byte-identical outputs: the cheap path once a pass has been verified."""
    if a.n_rows != b.n_rows or list(a.columns) != list(b.columns):
        return False
    return all(
        np.array_equal(a.columns[name], b.columns[name], equal_nan=True)
        for name in a.columns
    )


class Checker:
    """Compares each pass to the reference with the oracle's comparator."""

    def __init__(self, reference: Reference):
        self.reference = reference
        self.attempted = reference.attempted
        self.failed = reference.failed
        self.notes = list(reference.notes)
        self._verified: Dict[str, QueryResult] = {}

    def check(self, result: PassResult) -> None:
        self.attempted += result.attempted
        self.failed += result.lost
        for name, output in result.outputs.items():
            verified = self._verified.get(name)
            if verified is not None and _same_rows(verified, output):
                continue
            why = compare_results(self.reference.outputs[name], output)
            if why is None:
                self._verified[name] = output
            else:
                self.failed += result.ops_per_output[name]
                self.notes.append(f"{name}: {why}")


# ----- streams and the corpus ------------------------------------------------


@dataclass(frozen=True)
class StreamOp:
    """One query over one pre-materialized stream."""

    name: str
    sql: str
    catalog: Dict[str, Schema]
    config: EngineConfig
    batches: Sequence[Batch]


class StampedSource:
    """Replays stored batches, stamping the wall clock at every pull.

    ``Pipeline.run`` pulls once per loop iteration right after it dequeues
    a batch (a new batch while the stream lasts, an end-of-stream probe
    after), so consecutive stamps bracket the time the engine holds one
    batch.
    """

    def __init__(self, batches: Sequence[Batch]):
        self._iterator = iter(batches)
        self.stamps: List[float] = []

    def __iter__(self) -> "StampedSource":
        return self

    def __next__(self) -> Batch:
        self.stamps.append(perf_counter())
        return next(self._iterator)


def _codec_switches(decision_log: Sequence[Dict[str, str]]) -> int:
    return sum(
        1
        for before, after in zip(decision_log, decision_log[1:])
        for column in after
        if before.get(column) != after[column]
    )


def _add(counts: Dict[str, float], name: str, value: float) -> None:
    counts[name] = counts.get(name, 0) + value


def _cache_counts(counts: Dict[str, float], cache) -> None:
    _add(counts, "decode_cache.hits", cache.hits)
    _add(counts, "decode_cache.misses", cache.misses)
    _add(counts, "decode_cache.evictions", cache.evictions)
    _add(counts, "decode_cache.morph_hits", cache.morph_hits)
    _add(counts, "decode_cache.morph_misses", cache.morph_misses)


def _rules_fired(plan) -> int:
    opt = getattr(plan, "opt", None)
    return len(opt.rules_fired) if opt is not None else 0


class StreamWorkload:
    """One or more stream ops per pass (five single-op streams, the corpus)."""

    #: True: an op is a whole query (corpus); False: an op is one batch
    op_is_query = False

    def __init__(self, name: str):
        self.name = name

    def prepare(self, offset: int, smoke: bool) -> List[StreamOp]:
        """Inputs and ops; ``offset`` (``--seed``) is added to every base seed."""
        raise NotImplementedError

    def run_pass(self, ops: List[StreamOp]) -> PassResult:
        result = PassResult()
        for op in ops:
            self._run_op(op, result)
        return result

    def _run_op(self, op: StreamOp, result: PassResult) -> None:
        source = StampedSource(op.batches)
        start = perf_counter()
        engine = CompressStreamDB(catalog=op.catalog, query=op.sql, config=op.config)
        pipeline = engine.make_pipeline()
        report = pipeline.run(source, collect_outputs=True)
        end = perf_counter()

        profiler = report.profiler
        link = [timing.trans + timing.wait for timing in profiler.per_batch]
        result.wall_s += end - start
        result.link_s += sum(link)
        result.tuples += profiler.tuples
        result.bytes_sent += profiler.bytes_sent
        if self.op_is_query:
            result.op_latencies_s.append(end - start + sum(link))
            ops = 1
        else:
            # the last `batches` pulls are the per-iteration ones; the run's
            # end closes the last batch (it carries the output merge)
            stamps = source.stamps[-profiler.batches:] + [end]
            result.op_latencies_s.extend(
                after - before + virtual
                for before, after, virtual in zip(stamps, stamps[1:], link)
            )
            ops = profiler.batches
        # a lossless link: nothing is quarantined, only wrong answers can fail
        result.attempted += ops
        result.outputs[op.name] = report.outputs
        result.ops_per_output[op.name] = ops
        result.decisions[op.name] = report.decision_log

        counts = result.counts
        _add(counts, "optimizer.rules_fired", _rules_fired(engine.plan))
        _add(counts, "selector.reselections", len(report.decision_log))
        _add(counts, "selector.codec_switches", _codec_switches(report.decision_log))
        _add(counts, "net.transmit_virtual_s", profiler.seconds["trans"])
        _add(counts, "executor.rows_out", report.outputs.n_rows)
        _add(counts, "bytes_uncompressed", profiler.bytes_uncompressed)
        _cache_counts(counts, pipeline.server.cache)

    def reference(self, ops: List[StreamOp]) -> Reference:
        outputs = {}
        for op in ops:
            config = replace(op.config, mode="baseline", force_decode=True)
            engine = CompressStreamDB(catalog=op.catalog, query=op.sql, config=config)
            report = engine.run(op.batches, collect_outputs=True)
            outputs[op.name] = report.outputs
        return Reference(outputs)

    def baseline_state(self, ops: List[StreamOp]) -> Optional[List[StreamOp]]:
        """The same ops with compression off (`pipeline.speedup_vs_baseline`)."""
        return [replace(op, config=replace(op.config, mode="baseline")) for op in ops]


class PaperStream(StreamWorkload):
    """A Table III query over its dataset at a fixed geometry."""

    def __init__(
        self,
        name: str,
        query: str,
        slide: Optional[int],
        full: Tuple[int, int],
        smoke: Tuple[int, int],
    ):
        super().__init__(name)
        self.query = query
        self.slide = slide
        #: (batches, tuples per batch)
        self.geometry = {False: full, True: smoke}

    def prepare(self, offset: int, smoke: bool) -> List[StreamOp]:
        cfg = QUERIES[self.query]
        batches, batch_size = self.geometry[smoke]
        source = cfg.make_source(
            batch_size=batch_size, batches=batches, seed=offset
        )
        slide = cfg.window if self.slide is None else self.slide
        op = StreamOp(
            name=self.name,
            sql=cfg.text(slide=slide),
            catalog=cfg.catalog,
            config=engine_config(load_calibration()),
            batches=list(source),
        )
        return [op]


class DynamicFilter(StreamWorkload):
    """OR-equality filter over the phase-shifting stream, cascade pool."""

    def prepare(self, offset: int, smoke: bool) -> List[StreamOp]:
        batches, batch_size, per_phase = (12, 5120, 4) if smoke else (48, 51200, 8)
        source = smart_grid.dynamic_workload(
            batch_size=batch_size,
            batches=batches,
            batches_per_phase=per_phase,
            seed=7 + offset,
        )
        op = StreamOp(
            name=self.name,
            sql=DYNAMIC_FILTER_SQL,
            catalog={"SmartGridStr": smart_grid.SCHEMA},
            config=engine_config(
                load_calibration(), mode="adaptive+cascades", redecide_every=4
            ),
            batches=list(source),
        )
        return [op]


class CorpusReplay(StreamWorkload):
    """Every corpus query, SQL text to merged output, at fixture geometry."""

    op_is_query = True

    def _ops(self, offset: int) -> List[StreamOp]:
        config = engine_config(load_calibration())
        return [
            StreamOp(
                name=entry.name,
                sql=entry.sql,
                catalog=entry.catalog,
                config=config,
                batches=list(
                    entry.make_source(
                        entry.batch_size, entry.batches, entry.seed + offset
                    )
                ),
            )
            for entry in CORPUS.values()
        ]

    def prepare(self, offset: int, smoke: bool) -> List[StreamOp]:
        return self._ops(offset)

    def reference(self, ops: List[StreamOp]) -> Reference:
        """Decode-first outputs, plus the committed fixtures at their own seed.

        The fixtures pin one geometry, so the seeded sweeps are checked
        against the decode-first path and the engine is checked against
        the fixtures once, on the inputs they were blessed for.
        """
        reference = super().reference(ops)
        pinned = PassResult()
        for op in self._ops(0):
            self._run_op(op, pinned)
            why = check_fixture(CORPUS[op.name], pinned.outputs[op.name])
            reference.attempted += 1
            if why is not None:
                reference.failed += 1
                reference.notes.append(f"fixture {op.name}: {why}")
        return reference


# ----- the fleet -------------------------------------------------------------


@dataclass(frozen=True)
class PinnedTenantSpec(TenantSpec):
    """A tenant whose engine selects codecs from the pinned calibration."""

    calibration: Optional[CalibrationTable] = None

    def engine_config(self) -> EngineConfig:
        return replace(super().engine_config(), calibration=self.calibration)


class StampingClock(VirtualClock):
    """The supervisor's virtual clock, stamping the wall at every step.

    The supervisor advances its clock exactly once per served step, by
    that step's virtual cost, so consecutive stamps bracket one admitted
    step including the supervision around it.
    """

    def __init__(self) -> None:
        super().__init__()
        #: (wall time, virtual seconds charged) per served step
        self.steps: List[Tuple[float, float]] = []

    def advance(self, seconds: float) -> float:
        self.steps.append((perf_counter(), seconds))
        return super().advance(seconds)


@dataclass
class FleetState:
    specs: List[PinnedTenantSpec]
    registry: Dict[str, fleet_queries.ReplayQuery]
    bytes_uncompressed: int


#: retry waits sized for a LAN round trip: with the default 50 ms timeout
#: the seeded number of drops, not the code, would set the fleet's
#: end-to-end throughput and its latency tail
LAN_RELIABILITY = ReliabilityConfig(
    max_retries=6, rto_s=0.002, backoff_base_s=0.001, backoff_cap_s=0.008
)


class ServeFleet:
    """Tenants cycling q1,q2,q4,q5,q6 through ``ServeSupervisor.run()``."""

    op_is_query = False
    TENANT_QUERIES = ("q1", "q2", "q4", "q5", "q6")

    def __init__(self, name: str):
        self.name = name

    def prepare(self, offset: int, smoke: bool) -> FleetState:
        tenants, batches, batch_size, every, crash_at = (
            (4, 16, 256, 4, 10) if smoke else (16, 64, 1024, 8, 40)
        )
        calibration = load_calibration()
        specs = []
        stored: Dict[str, Dict[int, List[Batch]]] = {}
        bytes_uncompressed = 0
        for i in range(tenants):
            query = self.TENANT_QUERIES[i % len(self.TENANT_QUERIES)]
            seed = offset + i
            lossy = i % 2 == 1
            specs.append(
                PinnedTenantSpec(
                    tenant=f"t{i:02d}",
                    query=query,
                    query_module=fleet_queries.MODULE,
                    batches=batches,
                    batch_size=batch_size,
                    seed=seed,
                    checkpoint_every=every,
                    fault_profile=(
                        FaultProfile.lossy(0.05, seed=7 + offset + i) if lossy else None
                    ),
                    reliability=LAN_RELIABILITY if lossy else None,
                    crash_batches=(crash_at,) if i == 3 else (),
                    calibration=calibration,
                )
            )
            made = list(
                QUERIES[query].make_source(
                    batch_size=batch_size, batches=batches, seed=seed
                )
            )
            stored.setdefault(query, {})[seed] = made
            bytes_uncompressed += sum(batch.uncompressed_nbytes for batch in made)
        registry = {
            query: fleet_queries.ReplayQuery(QUERIES[query], by_seed)
            for query, by_seed in stored.items()
        }
        return FleetState(specs, registry, bytes_uncompressed)

    def run_pass(self, state: FleetState) -> PassResult:
        fleet_queries.install(state.registry)
        clock = StampingClock()
        start = perf_counter()
        supervisor = ServeSupervisor(state.specs, clock=clock)
        running = perf_counter()
        report = supervisor.run()
        end = perf_counter()

        quantum = state.specs[0].service_quantum_s
        latencies = []
        link_s = 0.0
        before = running
        for stamp, virtual in clock.steps:
            link = max(virtual - quantum, 0.0)
            latencies.append(stamp - before + link)
            link_s += link
            before = stamp

        sessions = [runner.session for runner in supervisor.runners]
        outputs = {
            spec.tenant: supervisor.merged_outputs(spec.tenant) for spec in state.specs
        }
        by_tenant = report.by_tenant()
        counts: Dict[str, float] = {
            "optimizer.rules_fired": sum(_rules_fired(s.plan) for s in sessions),
            "selector.reselections": sum(len(s.client.decision_log) for s in sessions),
            "selector.codec_switches": sum(
                _codec_switches(s.client.decision_log) for s in sessions
            ),
            "net.transmit_virtual_s": link_s,
            "net.retries": sum(t.retries for t in report.tenants),
            "net.quarantined": sum(t.dead_letters for t in report.tenants),
            "executor.rows_out": sum(o.n_rows for o in outputs.values()),
            "bytes_uncompressed": state.bytes_uncompressed,
            "serve.admitted_steps": report.admitted_steps,
            "serve.deferred_steps": report.deferred_steps,
            "serve.restarts": sum(t.restarts for t in report.tenants),
            "serve.breaker_trips": sum(t.breaker_trips for t in report.tenants),
            "serve.dead_letters": sum(t.dead_letters for t in report.tenants),
        }
        _cache_counts(counts, supervisor.cache)
        return PassResult(
            wall_s=end - start,
            link_s=link_s,
            tuples=report.tuples_delivered,
            bytes_sent=sum(s.channel.bytes_sent for s in sessions),
            op_latencies_s=latencies,
            attempted=report.batches_total,
            lost=report.batches_total - report.batches_delivered,
            outputs=outputs,
            ops_per_output={
                spec.tenant: by_tenant[spec.tenant].batches_delivered
                for spec in state.specs
            },
            counts=counts,
            decisions={
                spec.tenant: session.client.decision_log
                for spec, session in zip(state.specs, sessions)
            },
        )

    def reference(self, state: FleetState) -> Reference:
        """Each tenant's stream through one decode-first engine, no faults."""
        outputs = {}
        for spec in state.specs:
            cfg = state.registry[spec.query]
            config = replace(
                engine_config(spec.calibration), mode="baseline", force_decode=True
            )
            engine = CompressStreamDB(
                catalog=cfg.catalog, query=cfg.text(slide=cfg.window), config=config
            )
            report = engine.run(
                cfg.make_source(spec.batch_size, spec.batches, spec.seed),
                collect_outputs=True,
            )
            outputs[spec.tenant] = report.outputs
        return Reference(outputs)

    def baseline_state(self, state: FleetState) -> Optional[FleetState]:
        return None


WORKLOADS = {
    w.name: w
    for w in (
        # (batches, tuples per batch): full geometry, then --smoke
        PaperStream("agg_tumbling", "q1", None, (32, 102400), (6, 10240)),
        PaperStream("groupby_tumbling", "q2", None, (32, 102400), (6, 10240)),
        PaperStream("join_distinct", "q3", None, (32, 3000), (6, 600)),
        PaperStream("agg_sliding", "q1", 1, (64, 8192), (6, 2048)),
        DynamicFilter("dynamic_filter"),
        CorpusReplay("corpus_replay"),
        ServeFleet("serve_fleet"),
    )
}
