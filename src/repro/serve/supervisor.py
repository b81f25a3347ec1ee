"""The tenant supervisor: isolation, restarts, scheduling, recovery.

The supervisor runs every tenant's :class:`~repro.serve.session.TenantSession`
as an isolated unit under one virtual clock.  Its scheduling loop is a
fixed-order round-robin gated by the admission token bucket; each granted
step serves one batch for one tenant and advances the clock by that
step's deterministic virtual cost.

Crash containment has exactly **one** recovery point:
:meth:`ServeSupervisor._protected_step` is the only place in the serving
layer allowed to catch engine exceptions (enforced by lint rule CSD007).
A tenant whose engine raises ``CodecError``/``WireFormatError``/... is
restarted after an exponential backoff in virtual time —
:data:`RESTART_BACKOFF_BASE_S` doubling per restart, capped at
:data:`RESTART_BACKOFF_CAP_S` — resuming from its latest checkpoint, and
parked as QUARANTINED once :data:`MAX_RESTARTS` restarts are spent.  The
process never dies with it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from ..core.decode_cache import DecodeCache
from ..errors import ReproError, ServeError
from ..net.transport import capped_backoff_s
from ..sql.executor import QueryResult
from .admission import (
    HIGH_WATERMARK,
    LOW_WATERMARK,
    AdmissionController,
    backpressure_frame,
)
from .breaker import OPEN, RETRY_PRESSURE, CircuitBreaker
from .checkpoint import CheckpointStore, TenantCheckpoint
from .clock import VirtualClock
from .report import DEGRADED, HEALTHY, QUARANTINED, ServeReport, TenantReport
from .session import DELIVERED, DONE, QUARANTINED as BATCH_QUARANTINED
from .session import StepOutcome, TenantSession, TenantSpec

#: restarts a crashing tenant gets before it is parked as QUARANTINED
MAX_RESTARTS = 3
#: backoff before the first restart, and its cap (virtual seconds, CSD003)
RESTART_BACKOFF_BASE_S = 0.05
RESTART_BACKOFF_CAP_S = 5.0


class TenantRunner:
    """Supervisor-side bookkeeping wrapped around one tenant session."""

    def __init__(self, spec: TenantSpec):
        self.spec = spec
        self.session: Optional[TenantSession] = None
        self.breaker = CircuitBreaker()
        self.report = TenantReport(tenant=spec.tenant, batches_total=spec.batches)
        self.restarts = 0
        self.disarmed: Set[int] = set()
        #: virtual time before which this runner may not be scheduled
        self.next_eligible_at = 0.0
        self.paused = False
        #: virtual seconds of *unpaused* stream time (drives arrivals)
        self.arrival_clock = 0.0
        self.parked = False
        self.steps_since_checkpoint = 0
        #: batch indices already counted as delivered (replays after a
        #: checkpoint restore must not double-count)
        self.delivered_indices: Set[int] = set()
        #: cursor of the latest checkpoint saved or restored: the store's
        #: output log holds every output below it
        self.logged_through = 0

    @property
    def finished(self) -> bool:
        return self.parked or (self.session is not None and self.session.done)

    def arrived_batches(self) -> int:
        """Batches that have arrived from the stream by virtual now."""
        rate = self.spec.arrival_rate_bps
        if rate is None:
            return self.spec.batches
        return min(self.spec.batches, 1 + int(self.arrival_clock * rate))

    def queue_depth(self) -> int:
        """Arrived batches still queued for service (shed marks excluded)."""
        if self.session is None:
            return 0
        return max(
            0,
            self.arrived_batches()
            - self.session.cursor
            - len(self.session.shed_indices),
        )


class ServeSupervisor:
    """Multi-tenant scheduling loop with containment and recovery."""

    def __init__(
        self,
        specs: Sequence[TenantSpec],
        store: Optional[CheckpointStore] = None,
        resume: bool = False,
        clock: Optional[VirtualClock] = None,
    ):
        if not specs:
            raise ServeError("the supervisor needs at least one tenant")
        names = [spec.tenant for spec in specs]
        if len(set(names)) != len(names):
            raise ServeError("tenant ids must be unique")
        self.store = store if store is not None else CheckpointStore()
        self.clock = clock or VirtualClock()
        #: one decode/morph point shared by every session, so its counters
        #: cover the whole fleet
        self.cache = DecodeCache()
        self.admission = AdmissionController()
        self.runners: List[TenantRunner] = []
        for spec in specs:
            runner = TenantRunner(spec)
            checkpoint = self.store.latest(spec.tenant) if resume else None
            if checkpoint is not None:
                self._resume_runner(runner, checkpoint)
            else:
                runner.session = TenantSession(
                    spec, cache=self.cache, disarmed=runner.disarmed
                )
            self.runners.append(runner)
        self._last_round_at = self.clock.now

    def _resume_runner(self, runner: TenantRunner, ckpt: TenantCheckpoint) -> None:
        self._restore_session(runner, ckpt)
        # already-delivered outputs must not be re-counted when batches
        # between the checkpoint and the kill point are replayed
        runner.delivered_indices = set(runner.session.outputs)
        # the new supervisor starts with a fresh (CLOSED) breaker: degraded
        # mode is breaker-derived state, so the session follows it
        runner.session.set_degraded(False)
        self.clock.advance_to(ckpt.virtual_time)
        runner.arrival_clock = max(runner.arrival_clock, ckpt.virtual_time)

    # ----- scheduling loop -------------------------------------------------

    def run(self, max_steps: Optional[int] = None) -> ServeReport:
        """Serve until every tenant finishes (or ``max_steps`` is reached)."""
        steps = 0
        while any(not r.finished for r in self.runners):
            if max_steps is not None and steps >= max_steps:
                break
            self._update_arrivals()
            progressed = False
            for runner in self.runners:
                if runner.finished:
                    continue
                now = self.clock.now
                if now < runner.next_eligible_at:
                    continue
                if runner.breaker.state == OPEN:
                    if not runner.breaker.allow_probe(now):
                        continue
                    # half-open probe runs at full service quality
                    if runner.session is not None:
                        runner.session.set_degraded(False)
                if runner.arrived_batches() <= self._cursor(runner):
                    continue
                if not self.admission.admit(now):
                    break  # token bucket dry: the round ends here
                outcome = self._protected_step(runner)
                progressed = True
                steps += 1
                if outcome is not None:
                    self._after_step(runner, outcome)
                if max_steps is not None and steps >= max_steps:
                    break
            if not progressed:
                self._advance_to_next_event()
        return self._final_report()

    def _cursor(self, runner: TenantRunner) -> int:
        return 0 if runner.session is None else runner.session.cursor

    # ----- the single recovery point (CSD007) ------------------------------

    def _protected_step(self, runner: TenantRunner) -> Optional[StepOutcome]:
        """Step one tenant; contain any engine failure to that tenant."""
        if runner.session is None:
            raise ServeError(f"tenant {runner.spec.tenant!r} has no session")
        try:
            return runner.session.step(self.clock.now)
        except ReproError as exc:  # lint: supervised
            self._contain_crash(runner, exc)
            return None

    def _contain_crash(self, runner: TenantRunner, exc: ReproError) -> None:
        runner.report.crashes += 1
        if runner.session is not None:
            crashed_index = runner.session.cursor
            if crashed_index in runner.spec.crash_batches:
                runner.disarmed.add(crashed_index)
        runner.breaker.record(self.clock.now, failed=True)
        runner.restarts += 1
        if runner.restarts > MAX_RESTARTS:
            self._park(runner)
            return
        runner.report.restarts = runner.restarts
        backoff = capped_backoff_s(
            RESTART_BACKOFF_BASE_S, RESTART_BACKOFF_CAP_S, runner.restarts - 1
        )
        runner.next_eligible_at = self.clock.now + backoff
        self._restart(runner)

    def _restart(self, runner: TenantRunner) -> None:
        ckpt = self.store.latest(runner.spec.tenant)
        if ckpt is not None:
            self._restore_session(runner, ckpt)
        else:
            runner.session = TenantSession(
                runner.spec, cache=self.cache, disarmed=runner.disarmed
            )
        # degraded mode is breaker-derived; re-apply it to the new session
        runner.session.set_degraded(runner.breaker.degraded)

    def _restore_session(self, runner: TenantRunner, ckpt: TenantCheckpoint) -> None:
        ckpt.verify()
        runner.disarmed |= set(ckpt.disarmed_crashes)
        runner.session = TenantSession.restore(
            runner.spec,
            ckpt.payload,
            outputs=self.store.outputs(ckpt),
            cache=self.cache,
            disarmed=runner.disarmed,
        )
        runner.logged_through = ckpt.batches_processed
        runner.report.resumed_from_batch = ckpt.batches_processed

    def _park(self, runner: TenantRunner) -> None:
        """Quarantine a tenant whose restart budget is exhausted."""
        runner.parked = True
        runner.report.health = QUARANTINED

    # ----- post-step bookkeeping -------------------------------------------

    def _after_step(self, runner: TenantRunner, outcome: StepOutcome) -> None:
        if outcome.kind == DONE:
            return
        self.clock.advance(outcome.virtual_seconds)
        failed = outcome.kind == BATCH_QUARANTINED or outcome.attempts >= RETRY_PRESSURE
        runner.breaker.record(self.clock.now, failed=failed)
        if runner.session is not None:
            runner.session.set_degraded(runner.breaker.degraded)
        if (
            outcome.kind == DELIVERED
            and outcome.batch_index not in runner.delivered_indices
        ):
            runner.delivered_indices.add(outcome.batch_index)
            runner.report.latencies_s.append(outcome.virtual_seconds)
        runner.steps_since_checkpoint += 1
        if (
            runner.spec.checkpoint_every
            and runner.steps_since_checkpoint >= runner.spec.checkpoint_every
        ):
            self._checkpoint(runner)

    def _checkpoint(self, runner: TenantRunner) -> None:
        session = runner.session
        if session is None:
            return
        cursor = session.cursor
        # only what was delivered since the last checkpoint: the store
        # already logs everything below ``logged_through``
        fresh = {
            index: session.outputs[index]
            for index in range(runner.logged_through, cursor)
            if index in session.outputs
        }
        self.store.save(
            TenantCheckpoint(
                tenant=runner.spec.tenant,
                batches_processed=cursor,
                payload=session.state_bytes(),
                virtual_time=self.clock.now,
                disarmed_crashes=tuple(sorted(runner.disarmed)),
                outputs=fresh,
                outputs_from=runner.logged_through,
                delivered=len(session.outputs),
            )
        )
        runner.logged_through = cursor
        runner.report.checkpoints_saved += 1
        runner.steps_since_checkpoint = 0

    # ----- arrivals, watermarks, backpressure ------------------------------

    def _update_arrivals(self) -> None:
        now = self.clock.now
        dt = now - self._last_round_at
        self._last_round_at = now
        offered = []
        for runner in self.runners:
            if runner.finished or runner.spec.arrival_rate_bps is None:
                continue
            if not runner.paused:
                runner.arrival_clock += dt
            offered.append((runner.spec.tenant, runner.queue_depth()))
        if not offered:
            return
        decisions = self.admission.shed(offered)
        by_name = {r.spec.tenant: r for r in self.runners}
        for tenant, excess in decisions:
            self._shed_newest(by_name[tenant], excess)
        for tenant, _depth in offered:
            runner = by_name[tenant]
            depth = runner.queue_depth()
            if not runner.paused and depth >= HIGH_WATERMARK:
                self._signal_backpressure(runner, pause=True)
            elif runner.paused and depth <= LOW_WATERMARK:
                self._signal_backpressure(runner, pause=False)

    def _shed_newest(self, runner: TenantRunner, count: int) -> None:
        """Reject-newest: drop the most recent arrivals above the watermark."""
        session = runner.session
        if session is None or count <= 0:
            return
        indices = []
        index = runner.arrived_batches() - 1
        while len(indices) < count and index >= session.cursor:
            if index not in session.shed_indices:
                indices.append(index)
            index -= 1
        session.mark_shed(indices)

    def _signal_backpressure(self, runner: TenantRunner, pause: bool) -> None:
        """Push an XOFF/XON frame to the client over its own link."""
        if runner.session is None:
            return
        frame = backpressure_frame(pause)
        self.clock.advance(runner.session.charge_control_frame(frame))
        runner.paused = pause
        if pause:
            runner.report.xoff_frames += 1

    # ----- idle handling ---------------------------------------------------

    def _advance_to_next_event(self) -> None:
        """Nothing ran this round: jump the clock to the earliest event."""
        now = self.clock.now
        candidates: List[float] = []
        for runner in self.runners:
            if runner.finished:
                continue
            if runner.next_eligible_at > now:
                candidates.append(runner.next_eligible_at)
            if runner.breaker.state == OPEN:
                candidates.append(runner.breaker.next_probe_at())
            rate = runner.spec.arrival_rate_bps
            if (
                rate is not None
                and not runner.paused
                and runner.arrived_batches() <= self._cursor(runner)
            ):
                shortfall = self._cursor(runner) / rate - runner.arrival_clock
                candidates.append(now + max(shortfall, 0.0) + 1e-9)
        candidates.append(self.admission.next_admission_at(now))
        future = [c for c in candidates if c > now]
        if not future:
            raise ServeError(
                "supervisor livelock: active tenants but no future event"
            )
        self.clock.advance_to(min(future))

    # ----- results ---------------------------------------------------------

    def outputs(self, tenant: str) -> Dict[int, QueryResult]:
        """The per-batch-index outputs delivered for one tenant."""
        for runner in self.runners:
            if runner.spec.tenant == tenant:
                if runner.session is None:
                    return {}
                return dict(runner.session.outputs)
        raise ServeError(f"unknown tenant {tenant!r}")

    def merged_outputs(self, tenant: str) -> QueryResult:
        """All delivered outputs for a tenant, in batch order."""
        per_batch = self.outputs(tenant)
        return QueryResult.merge([per_batch[i] for i in sorted(per_batch)])

    def _final_report(self) -> ServeReport:
        reports = []
        for runner in self.runners:
            report = runner.report
            session = runner.session
            if session is not None:
                # delivery counters live in the (checkpointed) session, so
                # they stay exact across restarts and post-restore replays
                report.batches_delivered = len(session.outputs)
                report.tuples_delivered = session.tuples_delivered
                report.batches_shed = session.batches_shed + len(
                    session.shed_indices
                )
                transport = session.pipeline.transport
                if transport is not None:
                    report.dead_letters = transport.report.quarantined
                    report.retries = transport.report.retried
            report.breaker_trips = runner.breaker.trips
            report.breaker_recoveries = runner.breaker.recoveries
            if runner.parked:
                report.health = QUARANTINED
                report.batches_quarantined = max(
                    0,
                    report.batches_total
                    - report.batches_delivered
                    - report.batches_shed,
                )
            else:
                report.batches_quarantined = report.dead_letters
                report.health = DEGRADED if runner.breaker.degraded else HEALTHY
            reports.append(report)
        return ServeReport(
            tenants=reports,
            virtual_makespan_s=self.clock.now,
            admitted_steps=self.admission.admitted,
            deferred_steps=self.admission.deferred,
            process_crashes=0,
        )
