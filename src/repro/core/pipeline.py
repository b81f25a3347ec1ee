"""End-to-end pipeline: source -> client -> channel -> server (Fig. 4).

The pipeline drives the four cost-model stages per batch.  It maintains a
lookahead buffer over the source so the client's selector can "scan the
next five batches" exactly as Sec. IV-B describes, and it measures the
query profile (baseline memory/compute split for Eq. 8) on the first batch
with a throwaway executor before the run starts.

When the channel is a :class:`~repro.net.faults.FaultyChannel`, batches
additionally travel as real binary frames through
``serialize_batch``/``deserialize_batch`` under the reliable transport
(:mod:`repro.net.transport`): corrupted or dropped frames are
retransmitted with capped exponential backoff in virtual time, and
batches that exhaust their retries are quarantined instead of crashing
the run.  The resulting :class:`~repro.net.faults.FaultReport` rides on
the :class:`RunReport`.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, Iterable, Optional

from ..net.channel import Channel, QueuedChannel
from ..net.faults import FaultReport, FaultyChannel
from ..net.transport import ReliabilityConfig, ReliableTransport
from ..operators.base import decoded_column
from ..sql.executor import QueryResult, make_executor
from ..sql.plan import Plan
from ..stream.batch import Batch
from .client import Client
from .cost_model import SystemParams
from .metrics import RunReport
from .profiler import BatchTiming, Profiler
from .server import Server


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


class Pipeline:
    """Sequential compress -> transmit -> decompress -> query loop."""

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
        self.reliability = reliability

    def run(
        self,
        source: Iterable[Batch],
        max_batches: Optional[int] = None,
        collect_outputs: bool = False,
    ) -> RunReport:
        profiler = Profiler()
        outputs = [] if collect_outputs else None
        iterator = iter(source)
        lookahead: Deque[Batch] = deque()

        def refill() -> None:
            while len(lookahead) < self.client.lookahead:
                try:
                    lookahead.append(next(iterator))
                except StopIteration:
                    break

        refill()
        if self.profile_first_batch and lookahead:
            measure_query_profile(
                self.plan, lookahead[0], self.params.memory_fraction
            )

        # an unreliable channel engages the reliable transport: batches
        # travel as sequence-numbered binary frames with retransmission
        transport: Optional[ReliableTransport] = None
        if isinstance(self.channel, FaultyChannel):
            transport = ReliableTransport(
                self.channel, self.plan.schema, self.reliability
            )

        processed = 0
        arrived_tuples = 0
        timed_link = (
            self.channel.inner
            if isinstance(self.channel, FaultyChannel)
            else self.channel
        )
        use_arrivals = (
            self.params.arrival_rate_tps is not None
            and isinstance(timed_link, QueuedChannel)
        )
        while lookahead and (max_batches is None or processed < max_batches):
            batch = lookahead.popleft()
            refill()
            outcome = self.client.compress_batch(batch, upcoming=tuple(lookahead))
            ready: Optional[float] = None
            if use_arrivals:
                arrived_tuples += batch.n
                ready = arrived_tuples / self.params.arrival_rate_tps + outcome.seconds
            any_lazy = any(
                not name_is_eager(codec_name)
                for codec_name in outcome.choices.values()
            )
            wait_seconds = self.params.t_wait if any_lazy else 0.0
            if transport is not None:
                shipped = transport.send_batch(outcome.batch, ready_time=ready)
                bytes_sent = shipped.bytes_on_wire
                trans_seconds = shipped.seconds
                if shipped.delivered is None:
                    # quarantined: the time and bytes were spent, but the
                    # batch never reached the query — account and move on
                    profiler.record_batch(
                        BatchTiming(
                            wait=wait_seconds,
                            compress=outcome.seconds,
                            trans=trans_seconds,
                        ),
                        tuples=batch.n,
                        bytes_sent=bytes_sent,
                        bytes_uncompressed=batch.uncompressed_nbytes,
                    )
                    processed += 1
                    continue
                report = self.server.process(shipped.delivered)
            elif use_arrivals:
                trans_seconds, _ = self.channel.send(outcome.batch.nbytes, ready)
                bytes_sent = outcome.batch.nbytes
                report = self.server.process(outcome.batch)
            else:
                trans_seconds = self.channel.transmit(outcome.batch.nbytes)
                bytes_sent = outcome.batch.nbytes
                report = self.server.process(outcome.batch)
            timing = BatchTiming(
                wait=wait_seconds,
                compress=outcome.seconds,
                trans=trans_seconds,
                decompress=report.decompress_seconds,
                query=report.query_seconds,
            )
            profiler.record_batch(
                timing,
                tuples=batch.n,
                bytes_sent=bytes_sent,
                bytes_uncompressed=batch.uncompressed_nbytes,
            )
            if outputs is not None:
                outputs.append(report.result)
            processed += 1

        faults: Optional[FaultReport] = None
        if transport is not None:
            faults = transport.report
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
    from ..compression.registry import get_codec

    return not get_codec(codec_name).is_lazy
