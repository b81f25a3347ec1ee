"""Tests for the resilient serving layer (``repro.serve``).

The acceptance property is differential: a fleet that is killed mid-run
and resumed from checkpoints must produce byte-identical outputs to an
uninterrupted run, and injected crashes/faults must degrade individual
tenants — never the process.  Everything runs in virtual time, so the
suite asserts exact schedules and exact shed sets, not tolerances.
"""

import dataclasses
import io
import pickle
import zlib

import numpy as np
import pytest

from repro.cli import main
from repro.core.server import Server
from repro.errors import ServeError
from repro.net.faults import FaultProfile
from repro.net.transport import ReliabilityConfig, capped_backoff_s
from repro.oracle.chaos import ChaosConfig, run_chaos_campaign
from repro.serve import (
    CLOSED,
    DEGRADED_POOL,
    HALF_OPEN,
    HEALTHY,
    OPEN,
    QUARANTINED,
    AdmissionController,
    CheckpointStore,
    CircuitBreaker,
    FileCheckpointStore,
    ServeSupervisor,
    TenantCheckpoint,
    TenantSession,
    TenantSpec,
    TokenBucket,
    VirtualClock,
    backpressure_frame,
    parse_backpressure_frame,
)
from repro.serve import admission as admission_module
from repro.serve import breaker as breaker_module
from repro.serve import supervisor as supervisor_module
from repro.serve.checkpoint import frame_record
from repro.serve.report import p95
from repro.wire.format import deserialize_batch, serialize_batch


def spec(tenant, **kwargs):
    kwargs.setdefault("query", "q1")
    kwargs.setdefault("batches", 6)
    kwargs.setdefault("batch_size", 256)
    kwargs.setdefault("seed", 11)
    kwargs.setdefault("checkpoint_every", 2)
    return TenantSpec(tenant=tenant, **kwargs)


def mixed_fleet():
    """Three tenants: one clean, one with a poison batch, one lossy."""
    return [
        spec("t0", query="q1"),
        spec("t1", query="q5", seed=12, crash_batches=(3,)),
        spec(
            "t2",
            query="q4",
            seed=13,
            fault_profile=FaultProfile.lossy(0.04, seed=7),
            reliability=ReliabilityConfig(max_retries=6),
        ),
    ]


def assert_same_outputs(sup_a, sup_b, tenants):
    for tenant in tenants:
        a, b = sup_a.outputs(tenant), sup_b.outputs(tenant)
        assert sorted(a) == sorted(b)
        for index in a:
            assert a[index].columns.keys() == b[index].columns.keys()
            for name in a[index].columns:
                assert np.array_equal(
                    a[index].columns[name], b[index].columns[name]
                ), (tenant, index, name)


# ----- the acceptance test: kill-and-recover differential ----------------


class TestKillAndRecover:
    def test_recovered_run_matches_uninterrupted_run(self):
        specs = mixed_fleet()
        reference = ServeSupervisor(specs, store=CheckpointStore())
        ref_report = reference.run()
        assert ref_report.batches_delivered == ref_report.batches_total

        store = CheckpointStore()
        killed = ServeSupervisor(specs, store=store)
        killed.run(max_steps=9)  # simulated process death mid-fleet
        assert any(len(killed.outputs(s.tenant)) < s.batches for s in specs)

        recovered = ServeSupervisor(specs, store=store, resume=True)
        rec_report = recovered.run()

        assert rec_report.process_crashes == 0
        assert rec_report.batches_delivered == ref_report.batches_delivered
        assert rec_report.tuples_delivered == ref_report.tuples_delivered
        assert_same_outputs(reference, recovered, [s.tenant for s in specs])

    def test_resume_reports_checkpoint_position(self):
        specs = mixed_fleet()
        store = CheckpointStore()
        ServeSupervisor(specs, store=store).run(max_steps=9)
        recovered = ServeSupervisor(specs, store=store, resume=True)
        report = recovered.run()
        resumed = [t for t in report.tenants if t.resumed_from_batch >= 0]
        assert resumed, "at least one tenant should resume from a checkpoint"

    def test_delivery_counters_are_exactly_once(self):
        # batches replayed between the checkpoint and the kill point must
        # overwrite, not double-count
        specs = [spec("solo", batches=8, checkpoint_every=3)]
        store = CheckpointStore()
        ServeSupervisor(specs, store=store).run(max_steps=5)
        recovered = ServeSupervisor(specs, store=store, resume=True)
        report = recovered.run()
        tenant = report.by_tenant()["solo"]
        assert tenant.batches_delivered == 8
        assert tenant.tuples_delivered == 8 * 256


# ----- one batch path: the fleet step is the engine step -----------------


class TestFleetPathIsEnginePath:
    """``TenantSession.step`` and ``Pipeline.run`` loop over one
    ``Pipeline.step``: same batches, same codecs, same frames."""

    @pytest.mark.parametrize(
        "link",
        [
            dict(),
            dict(arrival_rate_tps=2e5, bandwidth_mbps=5.0),
            dict(
                # seeded to both recover (3) and quarantine (2) batches
                fault_profile=FaultProfile.lossy(0.3, seed=5),
                reliability=ReliabilityConfig(max_retries=1),
            ),
        ],
        ids=["lossless", "queued", "lossy"],
    )
    def test_session_steps_equal_engine_run(self, link):
        from repro import CompressStreamDB
        from repro.sql.executor import QueryResult

        tenant = spec("t", query="q2", batches=8, **link)
        session = TenantSession(tenant)
        while not session.done:
            session.step(0.0)

        cfg = tenant.query_config()
        pipeline = CompressStreamDB(
            cfg.catalog, cfg.text(slide=cfg.window), tenant.engine_config()
        ).make_pipeline()
        report = pipeline.run(tenant.make_source(), collect_outputs=True)

        fleet = QueryResult.merge(
            [session.outputs[i] for i in sorted(session.outputs)]
        )
        assert fleet.columns.keys() == report.outputs.columns.keys()
        for name, column in report.outputs.columns.items():
            assert np.array_equal(fleet.columns[name], column), name
        assert session.client.decision_log == report.decision_log
        assert session.channel.bytes_sent == pipeline.channel.bytes_sent
        if tenant.arrival_rate_tps is not None:
            # both drivers queued on the link; the waits differ because the
            # engine charges measured compression time, the fleet its quantum
            assert session.channel.queue_seconds > 0
            assert pipeline.channel.queue_seconds > 0
        transport = session.pipeline.transport
        assert (transport is None) == (report.faults is None)
        if transport is not None:
            assert transport.report.retried == report.faults.retried > 0
            assert transport.report.recovered == report.faults.recovered
            assert transport.report.quarantined == report.faults.quarantined > 0
            assert len(session.outputs) == 8 - report.faults.quarantined
            # quarantined batches still get their profiler entry
            assert report.profiler.batches == len(report.profiler.per_batch) == 8


# ----- crash containment and supervision ---------------------------------


class TestCrashContainment:
    def test_poison_batch_is_contained_and_disarmed(self):
        specs = [spec("ok"), spec("boom", seed=12, crash_batches=(2,))]
        supervisor = ServeSupervisor(specs)
        report = supervisor.run()
        boom = report.by_tenant()["boom"]
        assert boom.crashes == 1
        assert boom.restarts == 1
        assert boom.health == HEALTHY
        assert boom.batches_delivered == 6  # the crash batch was retried
        ok = report.by_tenant()["ok"]
        assert ok.crashes == 0 and ok.batches_delivered == 6
        assert report.process_crashes == 0
        # the restarted session decodes through the one shared instance too
        for runner in supervisor.runners:
            assert runner.session.server.cache is supervisor.cache

    def test_frame_with_a_mangled_meta_key_is_contained(self, monkeypatch):
        # a resealed frame whose first meta key lost a bit reaches one
        # tenant's server once: a typed error, contained like a poison batch
        process = Server.process
        hits = []

        def hostile(server, batch):
            if not hits:
                name = next(n for n, c in batch.columns.items() if c.meta)
                key = min(batch.columns[name].meta).encode()
                body = bytearray(serialize_batch(batch)[:-4])
                body[body.index(key)] ^= 1
                hits.append(name)
                batch = deserialize_batch(
                    bytes(body) + zlib.crc32(body).to_bytes(4, "little"),
                    batch.schema,
                )
            return process(server, batch)

        monkeypatch.setattr(Server, "process", hostile)
        report = ServeSupervisor([spec("a"), spec("b", seed=12)]).run()
        assert hits and report.process_crashes == 0
        tenants = report.by_tenant()
        assert sum(t.crashes for t in tenants.values()) == 1
        assert sum(t.restarts for t in tenants.values()) == 1
        assert all(t.batches_delivered == 6 for t in tenants.values())

    def test_restart_budget_exhaustion_quarantines_tenant(self):
        specs = [
            spec("ok"),
            spec("doomed", seed=12, crash_batches=(0, 1, 2, 3, 4)),
        ]
        report = ServeSupervisor(specs).run()
        doomed = report.by_tenant()["doomed"]
        assert doomed.health == QUARANTINED
        # the budget of MAX_RESTARTS restarts + the final straw
        assert doomed.crashes == supervisor_module.MAX_RESTARTS + 1
        accounted = (
            doomed.batches_delivered
            + doomed.batches_shed
            + doomed.batches_quarantined
        )
        assert accounted == doomed.batches_total
        # the blast radius is one tenant
        assert report.by_tenant()["ok"].health == HEALTHY
        assert report.by_tenant()["ok"].batches_delivered == 6
        assert report.process_crashes == 0

    def test_restart_backoff_is_bounded_exponential(self):
        base = supervisor_module.RESTART_BACKOFF_BASE_S
        cap = supervisor_module.RESTART_BACKOFF_CAP_S
        assert capped_backoff_s(base, cap, 0) == pytest.approx(0.05)
        assert capped_backoff_s(base, cap, 1) == pytest.approx(0.1)
        assert capped_backoff_s(base, cap, 2) == pytest.approx(0.2)
        assert capped_backoff_s(base, cap, 7) == pytest.approx(5.0)  # capped
        assert capped_backoff_s(base, cap, 1100) == cap  # no float overflow

    def test_restart_waits_out_the_backoff(self):
        specs = [spec("boom", seed=12, crash_batches=(2,))]
        supervisor = ServeSupervisor(specs)
        supervisor.run(max_steps=3)  # batches 0 and 1, then the crash
        runner = supervisor.runners[0]
        assert runner.restarts == 1
        assert runner.next_eligible_at == pytest.approx(
            supervisor.clock.now + supervisor_module.RESTART_BACKOFF_BASE_S
        )

    def test_duplicate_tenants_rejected(self):
        with pytest.raises(ServeError):
            ServeSupervisor([spec("a"), spec("a")])


# ----- circuit breaker ---------------------------------------------------


class TestCircuitBreaker:
    def tripped(self):
        """A breaker fed FAILURE_THRESHOLD failures at t = 0, 1, ..."""
        breaker = CircuitBreaker()
        for t in range(breaker_module.FAILURE_THRESHOLD):
            breaker.record(float(t), failed=True)
        return breaker

    def test_trips_after_threshold_failures(self):
        breaker = CircuitBreaker()
        assert breaker.state == CLOSED and not breaker.degraded
        for t in range(breaker_module.FAILURE_THRESHOLD - 1):
            breaker.record(float(t), failed=True)
        assert breaker.state == CLOSED
        breaker.record(3.0, failed=True)
        assert breaker.state == OPEN
        assert breaker.degraded
        assert breaker.trips == 1

    def test_successes_keep_it_closed(self):
        breaker = CircuitBreaker()
        for t in range(40):
            # sparse failures: at most 3 in any 16 consecutive steps
            breaker.record(float(t), failed=(t % 6 == 0))
        assert breaker.state == CLOSED

    def test_old_failures_slide_out_of_the_window(self):
        breaker = CircuitBreaker()
        for t in range(3):
            breaker.record(float(t), failed=True)
        for t in range(3, 3 + breaker_module.WINDOW - 3):
            breaker.record(float(t), failed=False)
        # the window is full: the next outcome pushes the first failure out
        breaker.record(100.0, failed=True)
        assert breaker.state == CLOSED

    def test_probe_gated_by_cooldown_then_recovers(self):
        breaker = self.tripped()  # tripped at t = 3.0, cooldown 2.0
        assert not breaker.allow_probe(4.5)
        assert breaker.state == OPEN
        assert breaker.allow_probe(5.0)
        assert breaker.state == HALF_OPEN
        breaker.record(5.0, failed=False)  # clean probe
        assert breaker.state == CLOSED
        assert breaker.recoveries == 1

    def test_failed_probe_escalates_cooldown(self):
        breaker = self.tripped()
        first_probe_at = breaker.next_probe_at()
        assert breaker.allow_probe(first_probe_at)
        breaker.record(first_probe_at, failed=True)  # probe fails
        assert breaker.state == OPEN
        assert breaker.trips == 2
        second_cooldown = breaker.next_probe_at() - first_probe_at
        first_cooldown = first_probe_at - 3.0
        assert first_cooldown == pytest.approx(breaker_module.COOLDOWN_S)
        assert second_cooldown == pytest.approx(
            breaker_module.COOLDOWN_S * breaker_module.COOLDOWN_FACTOR
        )

    def test_escalated_cooldown_is_capped(self):
        breaker = self.tripped()
        cooldowns = []
        for _ in range(8):
            probe_at = breaker.next_probe_at()
            assert breaker.allow_probe(probe_at)
            breaker.record(probe_at, failed=True)
            cooldowns.append(breaker.next_probe_at() - probe_at)
        assert cooldowns[:4] == pytest.approx([4.0, 8.0, 16.0, 30.0])
        assert cooldowns[-1] == pytest.approx(breaker_module.COOLDOWN_CAP_S)


# ----- graceful degradation ----------------------------------------------


class TestDegradedMode:
    def test_degraded_session_uses_cheap_pool_only(self):
        session = TenantSession(spec("t"))
        session.set_degraded(True)
        outcome = session.step(0.0)
        assert outcome.delivered
        assert outcome.choices
        assert set(outcome.choices.values()) <= set(DEGRADED_POOL)

    def test_degraded_results_match_full_quality_results(self):
        # degradation changes codecs, never results: every codec is lossless
        normal = TenantSession(spec("t", batches=4))
        degraded = TenantSession(spec("t", batches=4))
        degraded.set_degraded(True)
        while not normal.done:
            normal.step(0.0)
        while not degraded.done:
            degraded.step(0.0)
        assert sorted(normal.outputs) == sorted(degraded.outputs)
        for index in normal.outputs:
            for name in normal.outputs[index].columns:
                assert np.array_equal(
                    normal.outputs[index].columns[name],
                    degraded.outputs[index].columns[name],
                )

    def test_recovery_restores_full_pool(self):
        session = TenantSession(spec("t"))
        session.set_degraded(True)
        session.step(0.0)
        session.set_degraded(False)
        assert session.server.force_decode is False
        outcome = session.step(0.0)
        assert outcome.delivered


# ----- admission, backpressure, shedding ---------------------------------


class TestAdmission:
    def test_token_bucket_spends_and_refills(self):
        bucket = TokenBucket(capacity=2.0, refill_per_s=1.0)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)
        assert bucket.next_available_at(0.0) == pytest.approx(1.0)
        assert bucket.try_take(1.0)

    def test_token_bucket_rejects_time_backwards(self):
        bucket = TokenBucket(capacity=2.0, refill_per_s=1.0)
        bucket.try_take(5.0)
        with pytest.raises(ServeError):
            bucket.try_take(4.0)

    def test_shed_decisions_are_seeded_deterministic(self):
        offered = [("a", 12), ("b", 12), ("c", 5), ("d", 13)]
        first = AdmissionController().shed(offered)
        second = AdmissionController().shed(offered)
        assert first == second
        # most backlogged sheds the most
        assert ("d", 13 - admission_module.HIGH_WATERMARK) in first
        assert all(t != "c" for t, _ in first)  # under the watermark

    def test_backpressure_frame_round_trip(self):
        from repro.errors import TransportError
        from repro.net.transport import pack_envelope

        assert parse_backpressure_frame(backpressure_frame(True)) is True
        assert parse_backpressure_frame(backpressure_frame(False)) is False
        # a data envelope is not a control frame
        with pytest.raises(ServeError):
            parse_backpressure_frame(pack_envelope(0, b"XOFF"))
        # wire-level corruption keeps the transport taxonomy
        with pytest.raises(TransportError):
            parse_backpressure_frame(backpressure_frame(True)[:-1] + b"x")


class TestBackpressureEndToEnd:
    def hot_spec(self):
        # arrivals far outrun a 5 Mbps link: shedding + XOFF must engage
        return spec(
            "hot",
            batches=20,
            arrival_rate_tps=2_000_000.0,
            bandwidth_mbps=5.0,
            checkpoint_every=0,
        )

    def test_overloaded_tenant_sheds_and_pauses(self):
        supervisor = ServeSupervisor([self.hot_spec()])
        report = supervisor.run()
        tenant = report.by_tenant()["hot"]
        assert tenant.batches_shed > 0
        assert tenant.xoff_frames >= 1
        assert not supervisor.runners[0].paused  # drained, then XON
        assert tenant.batches_delivered + tenant.batches_shed == 20
        assert tenant.health == HEALTHY
        assert report.process_crashes == 0

    def test_shedding_is_deterministic_across_runs(self):
        def run_once():
            sup = ServeSupervisor([self.hot_spec()])
            report = sup.run()
            return sorted(sup.outputs("hot")), report.by_tenant()["hot"]

        delivered_a, tenant_a = run_once()
        delivered_b, tenant_b = run_once()
        assert delivered_a == delivered_b
        assert tenant_a.batches_shed == tenant_b.batches_shed
        assert tenant_a.xoff_frames == tenant_b.xoff_frames

    def test_batch_mode_tenants_never_shed(self):
        # tenants without an arrival model are not watermark-managed
        report = ServeSupervisor([spec("plain")]).run()
        tenant = report.by_tenant()["plain"]
        assert tenant.batches_shed == 0 and tenant.xoff_frames == 0


# ----- checkpoint stores -------------------------------------------------


class TestCheckpointStores:
    def test_file_store_resume_across_instances(self, tmp_path):
        specs = mixed_fleet()
        reference = ServeSupervisor(specs, store=CheckpointStore())
        reference.run()

        ckpt_dir = tmp_path / "ckpts"
        ServeSupervisor(specs, store=FileCheckpointStore(ckpt_dir)).run(
            max_steps=9
        )
        # a brand-new store instance: state must come from disk alone
        recovered = ServeSupervisor(
            specs, store=FileCheckpointStore(ckpt_dir), resume=True
        )
        report = recovered.run()
        assert report.batches_delivered == report.batches_total
        assert_same_outputs(reference, recovered, [s.tenant for s in specs])

    def test_latest_returns_newest_checkpoint(self):
        store = CheckpointStore()
        store.save(TenantCheckpoint(tenant="t", batches_processed=2, payload=b"a"))
        store.save(TenantCheckpoint(tenant="t", batches_processed=5, payload=b"b"))
        latest = store.latest("t")
        assert latest is not None and latest.batches_processed == 5
        assert store.latest("missing") is None
        assert store.tenants() == ["t"]

    def test_version_mismatch_rejected(self):
        store = CheckpointStore()
        bad = TenantCheckpoint(
            tenant="t", batches_processed=0, payload=b"", version=999
        )
        with pytest.raises(ServeError):
            store.save(bad)

    def test_version_1_file_rejected_on_load_and_restore(self, tmp_path):
        from repro.core.server import Server
        from repro.sql.executor import JoinExecutor, WindowAggExecutor
        from repro.stream import PartitionWindowState, WindowScheduler, WindowSpec

        # version 1: the 13-key state dict, before the payload became the
        # session's attribute dict
        v1 = pickle.dumps({"cursor": 2, "pulled": 6, "lookahead": []})
        # version 2: join partition state as a dict of per-key arrays,
        # before it became columnar
        dict_state = PartitionWindowState.__new__(PartitionWindowState)
        dict_state.__dict__.update(
            spec=WindowSpec.partition("k", 1), _state={7: {"k": np.array([7])}}
        )
        v2 = pickle.dumps({"cursor": 2, "states": [dict_state]})
        # version 3: the scheduler and decoded tail on the executor itself,
        # before one BatchBuffer owned both
        executor = WindowAggExecutor.__new__(WindowAggExecutor)
        executor.__dict__.update(
            scheduler=WindowScheduler(WindowSpec.count(4, 4)),
            _tail={"v": np.array([7])},
        )
        v3 = pickle.dumps({"cursor": 2, "executor": executor})
        # version 4: the lookahead feed and every delivered output inside
        # the payload, before both were rebuilt on restore
        v4 = pickle.dumps({"feed": [np.arange(4)], "outputs": {0: None}})
        # version 5: the client, transport config and fault profile still
        # carrying the knobs that became module constants
        v5 = pickle.dumps({"demote_after": 3, "backoff_factor": 2.0, "stall_s": 0.05})
        # version 6: the server carrying the tenant its decode-cache quota
        # charged, before the cache stopped storing anything
        server = Server.__new__(Server)
        server.__dict__.update(force_decode=False, tenant="t")
        v6 = pickle.dumps({"cursor": 2, "server": server})
        # version 7: Q3's join executor keeping a partition state for its
        # lone self-keyed side, before that side answered from its window
        join = JoinExecutor.__new__(JoinExecutor)
        join.__dict__.update(
            states=[PartitionWindowState(WindowSpec.partition("k", 1))],
            _absorbed=0,
        )
        v7 = pickle.dumps({"cursor": 2, "executor": join})
        for version, payload in (
            (1, v1), (2, v2), (3, v3), (4, v4), (5, v5), (6, v6), (7, v7)
        ):
            old = TenantCheckpoint(
                tenant="t", batches_processed=2, payload=payload, version=version
            )
            directory = tmp_path / f"v{version}"
            directory.mkdir()
            (directory / "t.ckpt").write_bytes(frame_record(old))
            with pytest.raises(ServeError, match=f"version {version}"):
                FileCheckpointStore(directory)
            # a store that let it through must still not reach pickle.loads
            store = CheckpointStore()
            store._latest["t"] = old
            with pytest.raises(ServeError, match=f"version {version}"):
                ServeSupervisor([spec("t")], store=store, resume=True)

    def test_dump_writes_index_and_payloads(self, tmp_path):
        store = CheckpointStore()
        store.save(TenantCheckpoint(tenant="t", batches_processed=2, payload=b"x"))
        written = store.dump(tmp_path / "dump")
        names = sorted(p.name for p in (tmp_path / "dump").iterdir())
        assert "checkpoints.json" in names
        assert any(name.endswith(".ckpt") for name in names)
        assert len(written) == 2


class RecordingStore(CheckpointStore):
    """An in-memory store that keeps every checkpoint it is handed."""

    def __init__(self):
        super().__init__()
        self.saved = []

    def save(self, checkpoint):
        super().save(checkpoint)
        self.saved.append(checkpoint)


def pickled_class_names(payload):
    """Names of every class a pickle instantiates, without building it."""
    names = set()

    class Recorder(pickle.Unpickler):
        def find_class(self, module, name):
            names.add(name)
            return super().find_class(module, name)

    Recorder(io.BytesIO(payload)).load()
    return names


def batch_bytes(batches):
    return [
        [(name, col.dtype.str, col.tobytes()) for name, col in b.columns.items()]
        for b in batches
    ]


class TestCheckpointContents:
    """A checkpoint holds session state only: no lookahead batches and no
    delivered outputs, so its size does not grow with run length."""

    def test_checkpoint_size_is_flat(self):
        store = RecordingStore()
        tenant = spec(
            "q6", query="q6", batches=64, batch_size=1024, checkpoint_every=8
        )
        ServeSupervisor([tenant], store=store).run()
        sizes = [ckpt.nbytes for ckpt in store.saved]
        assert len(sizes) == 8
        assert max(sizes) <= 1.25 * sizes[0], sizes
        for ckpt in store.saved:
            names = pickled_class_names(ckpt.payload)
            assert "Pipeline" in names
            assert not names & {"Batch", "QueryResult"}, names

    def test_each_output_is_logged_once_by_reference(self):
        store = RecordingStore()
        supervisor = ServeSupervisor([spec("t", checkpoint_every=2)], store=store)
        supervisor.run()
        assert [sorted(c.outputs) for c in store.saved] == [[0, 1], [2, 3], [4, 5]]
        assert [c.outputs_from for c in store.saved] == [0, 2, 4]
        assert [c.delivered for c in store.saved] == [2, 4, 6]
        delivered = supervisor.runners[0].session.outputs
        logged = store.outputs(store.latest("t"))
        assert all(logged[i] is delivered[i] for i in range(6))

    @pytest.mark.parametrize(
        "tenant, shed",
        [
            (spec("grid", query="q2", batches=10), ()),
            (spec("road", query="q3", batches=10), ()),
            (spec("cluster", query="q6", batches=10), ()),
            (
                spec(
                    "arrivals",
                    query="q1",
                    batches=12,
                    arrival_rate_tps=2e5,
                    bandwidth_mbps=5.0,
                ),
                (5, 6, 10),
            ),
        ],
        ids=["smart_grid", "linear_road", "cluster", "shed_under_arrivals"],
    )
    def test_restore_repulls_the_same_lookahead(self, tenant, shed):
        from repro.sql.executor import QueryResult

        reference, live = TenantSession(tenant), TenantSession(tenant)
        reference.mark_shed(shed)
        live.mark_shed(shed)
        for _ in range(4):
            live.step(0.0)
        restored = TenantSession.restore(
            tenant, live.state_bytes(), outputs=live.outputs
        )
        assert len(live.pipeline.feed) == live.client.lookahead
        assert batch_bytes(restored.pipeline.feed) == batch_bytes(live.pipeline.feed)
        assert restored.pipeline.pulled == live.pipeline.pulled
        assert restored.shed_indices == live.shed_indices
        for session in (reference, restored):
            while not session.done:
                session.step(0.0)
        assert restored.batches_shed == reference.batches_shed == len(shed)
        assert sorted(restored.outputs) == sorted(reference.outputs)
        merged = [
            QueryResult.merge([s.outputs[i] for i in sorted(s.outputs)])
            for s in (reference, restored)
        ]
        assert merged[0].columns.keys() == merged[1].columns.keys()
        for name in merged[0].columns:
            assert np.array_equal(merged[0].columns[name], merged[1].columns[name])

    def test_file_store_log_survives_reopen_and_dump(self, tmp_path):
        specs = mixed_fleet()
        reference = ServeSupervisor(specs)
        reference.run()
        store = FileCheckpointStore(tmp_path / "ckpts")
        ServeSupervisor(specs, store=store).run(max_steps=9)
        dumped = tmp_path / "dump"
        store.dump(dumped)
        for directory in (tmp_path / "ckpts", dumped):
            reopened = FileCheckpointStore(directory)
            for tenant in reopened.tenants():
                ckpt = reopened.latest(tenant)
                logged = reopened.outputs(ckpt)
                assert sorted(logged) == sorted(store.outputs(ckpt))
                for index, out in logged.items():
                    expected = reference.outputs(tenant)[index]
                    for name in out.columns:
                        assert np.array_equal(
                            out.columns[name], expected.columns[name]
                        )

    def test_first_checkpoint_of_a_fresh_run_resets_the_log(self, tmp_path):
        # a run without --resume over an old directory must not restore
        # the old run's outputs
        directory = tmp_path / "ckpts"
        ServeSupervisor([spec("t")], store=FileCheckpointStore(directory)).run()
        store = FileCheckpointStore(directory)
        ServeSupervisor([spec("t")], store=store).run(max_steps=2)
        assert sorted(store.outputs(store.latest("t"))) == [0, 1]
        assert sorted(FileCheckpointStore(directory)._outputs["t"]) == [0, 1]


class TestCorruptCheckpoints:
    """Every damaged checkpoint, payload or log is a ServeError naming the
    tenant (and the file), never a raw unpickling error."""

    def saved(self, tmp_path):
        directory = tmp_path / "ckpts"
        ServeSupervisor(
            [spec("t", query="q6")], store=FileCheckpointStore(directory)
        ).run(max_steps=5)
        return directory

    def test_truncated_checkpoint_file(self, tmp_path):
        directory = self.saved(tmp_path)
        path = directory / "t.ckpt"
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(ServeError, match=r"tenant 't' in .*t\.ckpt"):
            FileCheckpointStore(directory)

    def test_seeded_truncations_and_bit_flips(self, tmp_path):
        directory = self.saved(tmp_path)
        rng = np.random.default_rng(0)
        for name in ("t.ckpt", "t.outputs"):
            path = directory / name
            clean = path.read_bytes()
            for trial in range(40):
                data = bytearray(clean)
                if trial % 2:
                    del data[int(rng.integers(0, len(data))) :]
                else:
                    data[int(rng.integers(0, len(data)))] ^= 1 << int(
                        rng.integers(0, 8)
                    )
                path.write_bytes(bytes(data))
                with pytest.raises(ServeError, match="tenant 't'"):
                    FileCheckpointStore(directory)
            path.write_bytes(clean)
        assert FileCheckpointStore(directory).tenants() == ["t"]

    def test_missing_output_log_is_refused(self, tmp_path):
        directory = self.saved(tmp_path)
        (directory / "t.outputs").unlink()
        with pytest.raises(ServeError, match="holds 0 outputs below batch 4"):
            FileCheckpointStore(directory)

    @pytest.mark.parametrize(
        "payload, message",
        [
            (b"\x80\x04garbage", "does not unpickle"),
            (pickle.dumps({"x": 1}), "not a pickled session state"),
        ],
        ids=["garbage", "wrong_shape"],
    )
    def test_bad_payload_on_resume(self, payload, message):
        store = CheckpointStore()
        store.save(TenantCheckpoint(tenant="t", batches_processed=2, payload=payload))
        with pytest.raises(ServeError, match=f"tenant 't'.*{message}"):
            ServeSupervisor([spec("t")], store=store, resume=True)

    def test_payload_digest_checked_before_unpickling(self):
        store = CheckpointStore()
        ServeSupervisor([spec("t")], store=store).run(max_steps=2)
        good = store.latest("t")
        bad = dataclasses.replace(good, payload=good.payload[:-1])
        object.__setattr__(bad, "digest", good.digest)
        store._latest["t"] = bad
        with pytest.raises(ServeError, match="SHA-256"):
            ServeSupervisor([spec("t")], store=store, resume=True)


# ----- virtual clock -----------------------------------------------------


class TestVirtualClock:
    def test_advance_and_advance_to(self):
        clock = VirtualClock()
        assert clock.advance(1.5) == pytest.approx(1.5)
        assert clock.advance_to(1.0) == pytest.approx(1.5)  # no going back
        assert clock.advance_to(2.0) == pytest.approx(2.0)

    def test_invalid_advances_rejected(self):
        clock = VirtualClock()
        with pytest.raises(ServeError):
            clock.advance(-1.0)
        with pytest.raises(ServeError):
            clock.advance(float("nan"))
        with pytest.raises(ServeError):
            VirtualClock(start=-1.0)


# ----- latency percentile ------------------------------------------------


class TestP95:
    @pytest.mark.parametrize(
        "n, rank", [(1, 1), (19, 19), (20, 19), (21, 20), (100, 95)]
    )
    def test_nearest_rank(self, n, rank):
        # values 1..n, shuffled: the p95 is the ceil(0.95 n)-th smallest
        values = [float(v) for v in np.random.default_rng(n).permutation(n) + 1]
        assert p95(values) == float(rank)

    def test_no_samples(self):
        assert p95([]) == 0.0


# ----- chaos campaign smoke ----------------------------------------------


class TestChaosSmoke:
    def test_small_campaign_is_clean(self, tmp_path):
        config = ChaosConfig(
            cases=2,
            tenants=2,
            batches=4,
            batch_size=256,
            out_dir=str(tmp_path / "artifacts"),
        )
        result = run_chaos_campaign(config)
        assert result.ok, [str(m) for m in result.mismatches]
        assert result.cases_run == 2
        assert result.batches_delivered > 0
        assert not (tmp_path / "artifacts").exists()  # no failures, no files


# ----- CLI ----------------------------------------------------------------


class TestServeCLI:
    def test_serve_command_smoke(self, capsys):
        code = main(
            ["serve", "--tenants", "2", "--batches", "3", "--batch-size", "256"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Serving report" in out
        assert "HEALTHY" in out

    def test_serve_checkpoint_resume_cycle(self, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpts")
        args = [
            "serve", "--tenants", "2", "--batches", "4",
            "--batch-size", "256", "--checkpoint-every", "2",
            "--checkpoint-dir", ckpt,
        ]
        assert main(args + ["--max-steps", "5"]) == 0
        assert main(args + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "4/4" in out

    def test_chaos_cli_smoke(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(
            ["oracle", "--chaos", "--cases", "1", "--tenants", "2"]
        )
        assert code == 0
        assert "OK" in capsys.readouterr().out
