"""End-to-end pipeline: source -> client -> channel -> server (Fig. 4).

A :class:`Pipeline` is one stream's data path, advanced one batch at a
time: :meth:`Pipeline.step` is the only place an engine batch goes
``Client.compress_batch`` -> link -> ``Server.process``.  It returns a
:class:`BatchRecord` and keeps no history.  Two drivers loop over it:
:meth:`Pipeline.run`, the engine's whole-stream loop, which owns the
:class:`~repro.core.profiler.Profiler` and measures the query profile
(baseline memory/compute split for Eq. 8) on the first batch; and
:class:`repro.serve.session.TenantSession`, which wraps a pipeline in
serving policy and checkpoints it between batches.

What a step needs is explicit attributes, so a pipeline pickles between
steps: the lookahead ``feed`` over the source (the client's selector
"scans the next five batches", Sec. IV-B), the pulled/served cursors,
the arrival counter and — when the channel is a
:class:`~repro.net.faults.FaultyChannel` — the reliable transport
(:mod:`repro.net.transport`), which ships batches as binary frames,
retransmits with capped exponential backoff in virtual time and
quarantines a batch that exhausts its retries instead of crashing the
run.  A pickle leaves out what the source can give back: the iterator
and the lookahead feed.  It records ``pulled = cursor``, and
:meth:`Pipeline.attach` seeks a fresh source there and re-pulls the
lookahead, the same batches byte for byte because every source is
seeded.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Any, Deque, Dict, Iterable, Iterator, Optional

from ..compression.registry import get_codec
from ..errors import EngineError
from ..net.channel import Channel
from ..net.faults import FaultReport, FaultyChannel
from ..net.transport import ReliabilityConfig, ReliableTransport, TransportOutcome
from ..operators.base import decoded_column
from ..sql.executor import QueryResult, make_executor
from ..sql.plan import Plan
from ..stream.batch import Batch
from .client import Client
from .cost_model import SystemParams
from .metrics import RunReport
from .profiler import BatchTiming, Profiler
from .server import Server, ServerReport


def measure_query_profile(plan: Plan, batch: Batch, memory_fraction: float) -> None:
    """Fill ``plan.profile`` timings from one uncompressed execution.

    Runs the query on plain values with a fresh (discarded) executor, then
    splits the measured time into the memory-bound share that compression
    scales down (Eq. 8 divides it by r') and the compute share it cannot.
    """
    executor = make_executor(plan)
    columns = {
        name: decoded_column(name, batch.column(name))
        for name in plan.profile.referenced
    }
    t0 = time.perf_counter()
    executor.execute(columns, batch.n)
    elapsed = time.perf_counter() - t0
    plan.profile.mem_seconds = elapsed * memory_fraction
    plan.profile.op_seconds = elapsed * (1.0 - memory_fraction)


@dataclass
class BatchRecord:
    """What one :meth:`Pipeline.step` did with one batch."""

    index: int
    tuples: int
    bytes_uncompressed: int
    #: bytes that crossed the link (every attempt, under the transport)
    bytes_on_wire: int
    #: send attempts made (1 = clean first try)
    attempts: int
    choices: Dict[str, str]
    #: stage seconds; ``trans`` is the link's virtual time, and
    #: ``decompress``/``query`` stay zero for a quarantined batch
    timing: BatchTiming
    #: None when the transport quarantined the batch: the time and bytes
    #: were spent, but it never reached the query
    report: Optional[ServerReport]


class Pipeline:
    """One stream's compress -> link -> query path, one batch per step."""

    def __init__(
        self,
        plan: Plan,
        client: Client,
        server: Server,
        channel: Channel,
        params: SystemParams = SystemParams(),
        profile_first_batch: bool = True,
        reliability: Optional[ReliabilityConfig] = None,
    ):
        self.plan = plan
        self.client = client
        self.server = server
        self.channel = channel
        self.params = params
        self.profile_first_batch = profile_first_batch
        # an unreliable channel engages the reliable transport: batches
        # travel as sequence-numbered binary frames with retransmission
        self.transport: Optional[ReliableTransport] = (
            ReliableTransport(channel, plan.schema, reliability)
            if isinstance(channel, FaultyChannel)
            else None
        )
        self._source: Optional[Iterator[Batch]] = None
        #: lookahead over the source; the head is the next batch to serve
        self.feed: Deque[Batch] = deque()
        #: batches pulled from the source so far (the seek offset)
        self.pulled = 0
        #: index of the next batch to be taken
        self.cursor = 0
        self.arrived_tuples = 0

    def __getstate__(self) -> Dict[str, Any]:
        # iterators do not pickle, and the lookahead is the source's to
        # give back: attach() seeks a fresh one to the cursor and refills
        return {
            **self.__dict__,
            "_source": None,
            "feed": deque(),
            "pulled": self.cursor,
        }

    # ----- the source feed -------------------------------------------------

    def attach(self, source: Iterable[Batch]) -> None:
        """Bind the stream and fill the lookahead.

        On an unpickled pipeline this is a log-offset seek: the source
        (rebuilt by the caller) is advanced past every batch the pickled
        pipeline had already taken, and the lookahead is pulled again.
        """
        if self._source is not None:
            raise EngineError("a Pipeline serves one stream; make a fresh one")
        self._source = iter(source)
        skipped = sum(1 for _ in islice(self._source, self.pulled))
        if skipped < self.pulled:
            raise EngineError(
                f"source ended at batch {skipped}, cannot seek to batch {self.pulled}"
            )
        self._refill()

    def _refill(self) -> None:
        if self._source is None:
            raise EngineError("attach() a source before stepping a Pipeline")
        while len(self.feed) < self.client.lookahead:
            try:
                self.feed.append(next(self._source))
            except StopIteration:
                break
            self.pulled += 1

    def take(self) -> Batch:
        """Dequeue the head batch and pull its replacement.

        :meth:`step` serves what it takes; a caller shedding load takes a
        batch and drops it.
        """
        batch = self.feed.popleft()
        self._refill()
        self.cursor += 1
        return batch

    # ----- the per-batch path ----------------------------------------------

    def step(self, compute_seconds: Optional[float] = None) -> BatchRecord:
        """Serve the head batch: compress, cross the link, query.

        Under an arrival-rate model a batch is ready for the link once
        its tuples have arrived and the client has spent
        ``compute_seconds`` on it; None charges the measured compression
        time, a fixed value keeps the virtual clock deterministic.
        """
        index = self.cursor
        batch = self.take()
        outcome = self.client.compress_batch(batch, upcoming=tuple(self.feed))
        if compute_seconds is None:
            compute_seconds = outcome.seconds
        ready: Optional[float] = None
        rate = self.params.arrival_rate_tps
        if rate is not None:
            self.arrived_tuples += batch.n
            ready = self.arrived_tuples / rate + compute_seconds
        any_lazy = any(
            not name_is_eager(codec_name) for codec_name in outcome.choices.values()
        )
        timing = BatchTiming(
            wait=self.params.t_wait if any_lazy else 0.0, compress=outcome.seconds
        )
        if self.transport is not None:
            shipped = self.transport.send_batch(outcome.batch, ready_time=ready)
        else:
            nbytes = outcome.batch.nbytes
            shipped = TransportOutcome(
                delivered=outcome.batch,
                seconds=self.channel.ship(nbytes, ready),
                attempts=1,
                bytes_on_wire=nbytes,
            )
        timing.trans = shipped.seconds
        report: Optional[ServerReport] = None
        if shipped.delivered is not None:
            report = self.server.process(shipped.delivered)
            timing.decompress = report.decompress_seconds
            timing.query = report.query_seconds
        return BatchRecord(
            index=index,
            tuples=batch.n,
            bytes_uncompressed=batch.uncompressed_nbytes,
            bytes_on_wire=shipped.bytes_on_wire,
            attempts=shipped.attempts,
            choices=outcome.choices,
            timing=timing,
            report=report,
        )

    # ----- the engine's whole-stream loop ----------------------------------

    def run(
        self,
        source: Iterable[Batch],
        max_batches: Optional[int] = None,
        collect_outputs: bool = False,
    ) -> RunReport:
        self.attach(source)
        if self.profile_first_batch and self.feed:
            measure_query_profile(
                self.plan, self.feed[0], self.params.memory_fraction
            )
        profiler = Profiler()
        outputs = [] if collect_outputs else None
        while self.feed and (max_batches is None or self.cursor < max_batches):
            record = self.step()
            profiler.record_batch(
                record.timing,
                tuples=record.tuples,
                bytes_sent=record.bytes_on_wire,
                bytes_uncompressed=record.bytes_uncompressed,
            )
            if outputs is not None and record.report is not None:
                outputs.append(record.report.result)

        faults: Optional[FaultReport] = None
        if self.transport is not None:
            faults = self.transport.report
            faults.injected = self.channel.injected_counts
            faults.codec_demotions = list(self.client.demotions)
        elif self.client.demotions:
            faults = FaultReport(codec_demotions=list(self.client.demotions))

        return RunReport(
            profiler=profiler,
            outputs=QueryResult.merge(outputs) if outputs is not None else None,
            decision_log=list(self.client.decision_log),
            final_choices=self.client.current_choices,
            faults=faults,
        )


def name_is_eager(codec_name: str) -> bool:
    """Whether a codec (by registry name) compresses without batch wait."""
    return not get_codec(codec_name).is_lazy
