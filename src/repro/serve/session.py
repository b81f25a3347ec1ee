"""One tenant's engine pipeline plus serving policy, stepped by the supervisor.

A :class:`TenantSession` composes the engine's steppable
:class:`~repro.core.pipeline.Pipeline` — client, server, channel,
reliable transport and lookahead feed stay inside it, and
``Pipeline.step`` is the only batch path — and adds what is
serving-layer policy: draining shed batches, injected poison batches,
index-keyed exactly-once outputs, degraded mode and checkpoint/restore.
The supervisor interleaves tenants one :meth:`TenantSession.step` at a
time, contains crashes and checkpoints between batches.

Determinism is the load-bearing property: sessions always run with
``profile_query=False`` (codec selection depends only on the shipped
calibration table, never on measured wall time) and all virtual-time
inputs to the scheduler come from the transport/channel simulation plus
a fixed per-batch service quantum, passed to ``Pipeline.step`` in place
of the measured compression time.  Two sessions built from the same
:class:`TenantSpec` therefore produce byte-identical outputs — the
property the kill-and-recover differential test and the chaos oracle
lean on.

Checkpointing pickles the session's attributes (the pipeline and the
delivery counters) as one object graph, so shared references — the cost
model's channel handle, the fault injector's RNG position — survive
intact.  What can be rebuilt stays out: the server's
:class:`~repro.core.decode_cache.DecodeCache`, the stateless decode/morph
point the supervisor shares across sessions, is detached first; the
pipeline drops the source iterator and its lookahead feed, which
``Pipeline.attach`` re-pulls byte-identically from the spec's seeded
factory after seeking to the cursor (the virtual-time equivalent of a
log offset seek); and the delivered ``outputs`` are not
pickled at all — the supervisor hands each checkpoint the outputs
delivered since the previous one, the checkpoint store logs them once,
and :meth:`TenantSession.restore` takes the logged outputs below the
checkpoint's cursor as an argument, so a checkpoint does not grow with
run length.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Set, Tuple

from ..core.client import Client
from ..core.cost_model import SystemParams
from ..core.decode_cache import DecodeCache
from ..core.engine import CompressStreamDB, EngineConfig
from ..core.pipeline import Pipeline
from ..core.server import Server
from ..errors import CodecError, ServeError
from ..net.channel import Channel
from ..net.faults import FaultProfile
from ..net.transport import ReliabilityConfig
from ..sql.executor import QueryResult
from ..sql.plan import Plan
from ..stream.batch import Batch
from .checkpoint import unpickle

#: codec names a degraded tenant is confined to: cheap, always-applicable
#: encodings with no dictionary state and no direct-path execution needs
DEGRADED_POOL = ("identity", "ns")

#: session attributes restore() takes as arguments instead of unpickling
#: (CSD012's detach list names the same three)
REBUILT_ON_RESTORE = ("spec", "disarmed", "outputs")

DELIVERED = "delivered"
QUARANTINED = "quarantined"
DONE = "done"


@dataclass(frozen=True)
class TenantSpec:
    """A reproducible description of one tenant's workload and link."""

    tenant: str
    query: str = "q1"
    #: dotted module exposing a ``QUERIES`` registry to resolve ``query``
    #: in; empty = the paper's Table III queries.  Any registry entry
    #: duck-typing :class:`~repro.datasets.queries.QueryConfig` works —
    #: this is how ``repro.workloads`` replays its corpus through the
    #: fleet path without the serving layer importing it
    query_module: str = ""
    batches: int = 12
    batch_size: int = 1024
    seed: int = 0
    mode: str = "adaptive"
    bandwidth_mbps: Optional[float] = 500.0
    latency_s: float = 0.0
    #: arrival model (tuples/s); None = whole stream available up front
    arrival_rate_tps: Optional[float] = None
    fault_profile: Optional[FaultProfile] = None
    reliability: Optional[ReliabilityConfig] = None
    #: batch indices that raise an injected CodecError (crash-containment
    #: and recovery testing); each crashes once, then is disarmed
    crash_batches: Tuple[int, ...] = ()
    #: checkpoint after every N processed batches (0 disables)
    checkpoint_every: int = 8
    #: fixed virtual seconds of client+server compute charged per batch
    #: (the deterministic stand-in for measured compress/query time)
    service_quantum_s: float = 0.002
    #: run tenant queries through the rule-based optimizer (the engine
    #: default); False pins the planner's naive plan shape
    optimize: bool = True

    def __post_init__(self) -> None:
        if not self.tenant:
            raise ServeError("a tenant needs a non-empty id")
        if self.batches < 1 or self.batch_size < 1:
            raise ServeError("batches and batch_size must be positive")
        if self.checkpoint_every < 0:
            raise ServeError("checkpoint_every cannot be negative")
        if self.service_quantum_s < 0:
            raise ServeError("service_quantum_s cannot be negative")

    def query_config(self):
        if self.query_module:
            import importlib

            try:
                module = importlib.import_module(self.query_module)
            except ImportError as exc:
                raise ServeError(
                    f"query module {self.query_module!r} not importable: {exc}"
                ) from exc
            registry = getattr(module, "QUERIES", None)
            if not isinstance(registry, dict) or self.query not in registry:
                raise ServeError(
                    f"unknown query {self.query!r} in module "
                    f"{self.query_module!r}"
                )
            return registry[self.query]
        from ..datasets.queries import QUERIES

        if self.query not in QUERIES:
            raise ServeError(f"unknown query {self.query!r}")
        return QUERIES[self.query]

    def engine_config(self) -> EngineConfig:
        return EngineConfig(
            mode=self.mode,
            bandwidth_mbps=self.bandwidth_mbps,
            latency_s=self.latency_s,
            params=SystemParams(arrival_rate_tps=self.arrival_rate_tps),
            # selection from the shipped calibration table alone: the same
            # choices in every run and process, the precondition for
            # checkpoint-replay equivalence
            profile_query=False,
            fault_profile=self.fault_profile,
            reliability=self.reliability,
            optimize=self.optimize,
        )

    def make_source(self) -> Iterable[Batch]:
        cfg = self.query_config()
        return cfg.make_source(
            batch_size=self.batch_size, batches=self.batches, seed=self.seed
        )

    @property
    def arrival_rate_bps(self) -> Optional[float]:
        """Arrival rate in batches per virtual second."""
        if self.arrival_rate_tps is None:
            return None
        return self.arrival_rate_tps / self.batch_size


@dataclass
class StepOutcome:
    """What one supervisor-granted service step did."""

    kind: str
    batch_index: int
    tuples: int = 0
    #: deterministic virtual cost of the step (transport + service quantum)
    virtual_seconds: float = 0.0
    attempts: int = 1
    #: batches silently consumed as shed load while reaching this one
    shed: int = 0
    choices: Dict[str, str] = field(default_factory=dict)

    @property
    def delivered(self) -> bool:
        return self.kind == DELIVERED


class TenantSession:
    """The per-tenant unit of isolation the supervisor steps and restarts."""

    def __init__(
        self,
        spec: TenantSpec,
        cache: Optional[DecodeCache] = None,
        disarmed: Optional[Iterable[int]] = None,
    ):
        self.spec = spec
        cfg = spec.query_config()
        engine = CompressStreamDB(
            catalog=cfg.catalog,
            query=cfg.text(slide=cfg.window),
            config=spec.engine_config(),
        )
        # annotated: CSD012 walks it into the pickled object graph
        self.pipeline: Pipeline = engine.make_pipeline()
        if cache is not None:
            self.server.cache = cache
        #: batch index -> that batch's query output; keyed storage makes
        #: post-restore reprocessing exactly-once (replays overwrite with
        #: identical results instead of duplicating rows).  Not pickled:
        #: the checkpoint store logs it, restore() takes it back
        self.outputs: Dict[int, QueryResult] = {}
        #: input tuples behind the delivered outputs (first deliveries only)
        self.tuples_delivered = 0
        self.batches_shed = 0
        self.shed_indices: Set[int] = set()
        self.disarmed: Set[int] = set(disarmed or ())
        self.degraded = False
        self.pipeline.attach(spec.make_source())

    # ----- the composed pipeline -------------------------------------------

    @property
    def plan(self) -> Plan:
        return self.pipeline.plan

    @property
    def client(self) -> Client:
        return self.pipeline.client

    @property
    def server(self) -> Server:
        return self.pipeline.server

    @property
    def channel(self) -> Channel:
        return self.pipeline.channel

    @property
    def cursor(self) -> int:
        """Index of the next batch to be processed (or shed)."""
        return self.pipeline.cursor

    @property
    def done(self) -> bool:
        return not self.pipeline.feed

    # ----- load shedding, backpressure -------------------------------------

    def mark_shed(self, indices: Iterable[int]) -> int:
        """Reject-newest load shedding: drop these not-yet-served batches."""
        added = 0
        for index in indices:
            if index < self.cursor:
                raise ServeError(f"cannot shed already-served batch {index}")
            if index not in self.shed_indices:
                self.shed_indices.add(index)
                added += 1
        return added

    def _drain_shed(self) -> int:
        shed = 0
        while not self.done and self.cursor in self.shed_indices:
            self.shed_indices.discard(self.cursor)
            self.pipeline.take()
            self.batches_shed += 1
            shed += 1
        return shed

    def charge_control_frame(self, frame: bytes) -> float:
        """Charge a backpressure frame's bytes to this tenant's link."""
        return self.channel.transmit(len(frame))

    # ----- degraded mode ---------------------------------------------------

    def set_degraded(self, degraded: bool) -> None:
        """Enter/leave graceful degradation.

        Degraded tenants force decode-first execution (no
        direct-on-compressed fast paths: simpler, battle-tested code) and
        confine codec selection to the cheap always-safe pool via the
        client-side demotion machinery.
        """
        if degraded == self.degraded:
            return
        self.degraded = degraded
        self.server.force_decode = degraded
        self.client.restrict_pool(set(DEGRADED_POOL) if degraded else None)

    # ----- the per-batch step ---------------------------------------------

    def step(self, now: float) -> StepOutcome:
        """Serve one batch; raises engine errors for the supervisor to contain."""
        shed_now = self._drain_shed()
        index = self.cursor
        if self.done:
            return StepOutcome(kind=DONE, batch_index=index, shed=shed_now)
        if index in self.spec.crash_batches and index not in self.disarmed:
            raise CodecError(
                f"injected poison batch {index} for tenant {self.spec.tenant!r}"
            )
        quantum = self.spec.service_quantum_s
        record = self.pipeline.step(compute_seconds=quantum)
        kind = QUARANTINED  # dead-lettered: time and bytes spent, no result
        if record.report is not None:
            kind = DELIVERED
            if index not in self.outputs:
                self.tuples_delivered += record.tuples
            self.outputs[index] = record.report.result
        return StepOutcome(
            kind=kind,
            batch_index=index,
            tuples=record.tuples,
            virtual_seconds=record.timing.trans + quantum,
            attempts=record.attempts,
            shed=shed_now,
            choices=record.choices,
        )

    # ----- checkpoint / restore -------------------------------------------

    def state_bytes(self) -> bytes:
        """The session's mutable state, pickled as one object graph."""
        state = {k: v for k, v in vars(self).items() if k not in REBUILT_ON_RESTORE}
        cache = self.server.cache
        # the decode/morph point is shared across tenants and re-attached
        # on restore; detach it so a checkpoint holds only this tenant's state
        self.server.cache = None
        try:
            return pickle.dumps(state, protocol=4)
        finally:
            self.server.cache = cache

    @classmethod
    def restore(
        cls,
        spec: TenantSpec,
        payload: bytes,
        outputs: Optional[Mapping[int, QueryResult]] = None,
        cache: Optional[DecodeCache] = None,
        disarmed: Optional[Iterable[int]] = None,
    ) -> "TenantSession":
        """Resume a session from :meth:`state_bytes` output.

        ``outputs`` are the tenant's logged outputs below the checkpoint's
        cursor (:meth:`CheckpointStore.outputs`).
        """
        what = f"checkpoint payload of tenant {spec.tenant!r}"
        state = unpickle(payload, what)
        if not isinstance(state, dict) or not isinstance(
            state.get("pipeline"), Pipeline
        ):
            raise ServeError(f"{what} is not a pickled session state")
        session = cls.__new__(cls)
        vars(session).update(state)
        session.spec = spec
        session.outputs = dict(outputs or {})
        session.disarmed = set(disarmed or ())
        session.server.cache = cache if cache is not None else DecodeCache()
        # log-offset seek: rebuild the seeded source and skip everything
        # the checkpointed pipeline had already pulled
        session.pipeline.attach(spec.make_source())
        return session
