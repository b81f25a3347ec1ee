"""The CompressStreamDB engine facade — the library's main entry point.

Example
-------
>>> from repro import CompressStreamDB, EngineConfig
>>> from repro.datasets import smart_grid
>>> engine = CompressStreamDB(
...     catalog={"SmartGridStr": smart_grid.SCHEMA},
...     query="select timestamp, avg(value) as globalAvgLoad "
...           "from SmartGridStr [range 1024 slide 1024]",
...     config=EngineConfig(mode="adaptive", bandwidth_mbps=500),
... )
>>> report = engine.run(smart_grid.source(batch_size=4096, batches=8))
>>> report.throughput > 0
True

Modes
-----
``adaptive``
    the paper's CompressStreamDB: per-column cost-model selection;
``adaptive+plwah``
    the Sec. VII-D extension pool including PLWAH;
``adaptive+cascades``
    the Table I pool plus the cascaded codec families (DICT→RLE,
    DELTA→NS, BD→NSV, DICT→BITMAP; see ``repro.compression.cascade``);
``baseline``
    compression turned off (identity codec) — the comparison baseline;
``static:<codec>``
    a single fixed codec for every column, e.g. ``static:bd`` reproduces
    the TerseCades comparator.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Union

from ..compression.registry import (
    CASCADE_POOL,
    all_codec_names,
    default_pool,
    get_codec,
)
from ..errors import EngineError
from ..net.channel import Channel, QueuedChannel
from ..net.faults import FaultProfile, FaultyChannel
from ..net.transport import ReliabilityConfig
from ..optimizer.optimizer import plan_for_engine
from ..sql.plan import Plan
from ..stream.batch import Batch
from ..stream.schema import Schema
from .calibration import CalibrationTable, default_calibration
from .client import Client
from .cost_model import CostModel, SystemParams
from .metrics import RunReport
from .pipeline import Pipeline
from .selector import AdaptiveSelector, SelectorBase, StaticSelector
from .server import Server


@dataclass(frozen=True)
class EngineConfig:
    """Engine-level knobs; see module docstring for ``mode`` values."""

    mode: str = "adaptive"
    bandwidth_mbps: Optional[float] = 500.0
    latency_s: float = 0.0
    redecide_every: int = 16
    lookahead: int = 5
    params: SystemParams = field(default_factory=SystemParams)
    #: codec cost table for the optimizer and the selector (None = the
    #: table shipped with the package, see ``default_calibration``)
    calibration: Optional[CalibrationTable] = None
    #: restrict the adaptive pool to these codec names (None = Table I pool)
    pool: Optional[List[str]] = None
    #: selector hysteresis: a challenger codec must beat the incumbent by
    #: this relative margin to replace it (0 = always take the argmin)
    switch_margin: float = 0.0
    #: ablation switch: decompress every column before querying instead of
    #: processing compressed codes directly (the design the paper rejects)
    force_decode: bool = False
    #: custom channel constructor (e.g. a MultiHopChannel for the Sec. IV-A
    #: multi-layer deployment); overrides bandwidth_mbps/latency_s
    channel_factory: Optional[Callable[[], Channel]] = None
    #: hybrid mode (Sec. VI): batches at or below this many tuples bypass
    #: compression entirely and are processed as uncompressed singles
    hybrid_threshold: int = 0
    #: measure the query profile (Eq. 8 inputs) on the first batch.  True
    #: matches the paper's runtime profiler; False makes selection depend
    #: only on the calibration table — fully deterministic across runs
    profile_query: bool = True
    #: inject link faults (drops, bit-flips, truncations, duplicates,
    #: stalls) at these seeded rates; engages the reliable transport so
    #: batches ship as retransmittable binary frames
    fault_profile: Optional[FaultProfile] = None
    #: retry/backoff knobs of the recovery protocol; setting this alone
    #: (without faults) still routes batches through the framed transport
    reliability: Optional[ReliabilityConfig] = None
    #: run the query through the rule-based optimizer
    #: (:mod:`repro.optimizer`) before execution.  False is the escape
    #: hatch: the bound plan is lowered with zero rules applied
    optimize: bool = True


class CompressStreamDB:
    """Compression-based stream processing engine (the paper's system)."""

    def __init__(
        self,
        catalog: Union[Dict[str, Schema], Schema],
        query: str,
        config: EngineConfig = EngineConfig(),
        stream_name: str = "S",
    ):
        if isinstance(catalog, Schema):
            catalog = {stream_name: catalog}
        self.catalog = catalog
        self.query = query
        self.config = config
        self._validate_mode(config.mode)
        # static modes pin one codec on every column — tell the optimizer
        # so rules needing run/plane evidence can price the representation
        hint = ""
        if config.mode.startswith("static:"):
            hint = config.mode.split(":", 1)[1]
        # one table prices both the plan and the codec choices
        self._calibration = config.calibration or default_calibration()
        # plan once: the plan is immutable; executors are per-run
        self._base_plan: Plan = plan_for_engine(
            catalog,
            query,
            optimize=config.optimize,
            codec_hint=hint,
            calibration=self._calibration,
        ).plan

    @staticmethod
    def _validate_mode(mode: str) -> None:
        if mode in ("adaptive", "adaptive+plwah", "adaptive+cascades", "baseline"):
            return
        if mode.startswith("static:"):
            name = mode.split(":", 1)[1]
            if name not in all_codec_names():
                raise EngineError(f"unknown codec in mode {mode!r}")
            return
        raise EngineError(
            f"unknown mode {mode!r}; expected adaptive, adaptive+plwah, "
            "adaptive+cascades, baseline, or static:<codec>"
        )

    # ----- wiring ------------------------------------------------------

    def _make_channel(self) -> Channel:
        if self.config.channel_factory is not None:
            channel = self.config.channel_factory()
        else:
            # an arrival-rate model needs the queueing link (Fig. 10 pauses)
            cls = (
                QueuedChannel
                if self.config.params.arrival_rate_tps is not None
                else Channel
            )
            channel = cls(
                bandwidth_mbps=self.config.bandwidth_mbps,
                latency_s=self.config.latency_s,
            )
        wants_transport = (
            self.config.fault_profile is not None
            or self.config.reliability is not None
        )
        if wants_transport and not isinstance(channel, FaultyChannel):
            channel = FaultyChannel(channel, profile=self.config.fault_profile)
        return channel

    def _make_selector(self, channel: Channel) -> SelectorBase:
        mode = self.config.mode
        if mode == "baseline":
            return StaticSelector("identity")
        if mode.startswith("static:"):
            return StaticSelector(mode.split(":", 1)[1])
        cost_model = CostModel(self._calibration, self.config.params, channel)
        if self.config.pool is not None:
            pool = [get_codec(name) for name in self.config.pool]
        else:
            pool = default_pool(
                include_plwah=(mode == "adaptive+plwah"),
                extensions=CASCADE_POOL if mode == "adaptive+cascades" else (),
            )
        return AdaptiveSelector(
            cost_model, pool, switch_margin=self.config.switch_margin
        )

    def make_pipeline(self) -> Pipeline:
        """A fresh pipeline (fresh executors, fresh channel counters)."""
        # Pipeline.run measures the query profile into the plan: hand each
        # pipeline its own profile so the engine's plan stays immutable
        plan = replace(self._base_plan, profile=replace(self._base_plan.profile))
        channel = self._make_channel()
        selector = self._make_selector(channel)
        client = Client(
            schema=plan.schema,
            selector=selector,
            profile=plan.profile,
            redecide_every=self.config.redecide_every,
            lookahead=self.config.lookahead,
            hybrid_threshold=self.config.hybrid_threshold,
        )
        server = Server(plan, force_decode=self.config.force_decode)
        return Pipeline(
            plan=plan,
            client=client,
            server=server,
            channel=channel,
            params=self.config.params,
            profile_first_batch=self.config.profile_query,
            reliability=self.config.reliability,
        )

    # ----- public API ------------------------------------------------------

    @property
    def plan(self) -> Plan:
        return self._base_plan

    def run(
        self,
        source: Iterable[Batch],
        max_batches: Optional[int] = None,
        collect_outputs: bool = False,
    ) -> RunReport:
        """Process a stream end-to-end and return the run report."""
        pipeline = self.make_pipeline()
        return pipeline.run(
            source, max_batches=max_batches, collect_outputs=collect_outputs
        )

    def with_mode(self, mode: str) -> "CompressStreamDB":
        """A copy of this engine in another processing mode."""
        return CompressStreamDB(
            catalog=self.catalog,
            query=self.query,
            config=replace(self.config, mode=mode),
        )
