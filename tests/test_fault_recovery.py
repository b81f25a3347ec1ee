"""End-to-end recovery protocol: retry/backoff, dedup, quarantine, demotion.

The contract under test (docs/robustness.md): over a lossy link every
batch is either delivered *bit-identically* to the clean-link run or
quarantined to the dead-letter list — never silently corrupted — and
``FaultReport.detected == recovered + quarantined`` always holds.
"""

import numpy as np
import pytest

from repro import CompressStreamDB, EngineConfig
from repro.compression import get_codec
from repro.core import Client, StaticSelector
from repro.core import client as client_module
from repro.core.selector import SelectorBase
from repro.datasets import QUERIES, smart_grid
from repro.errors import CodecError, TransportError
from repro.net import (
    Channel,
    FaultProfile,
    FaultyChannel,
    Hop,
    MultiHopChannel,
    ReliabilityConfig,
    ReliableTransport,
)
from repro.net.faults import STALL_S
from repro.net.transport import pack_envelope, unpack_envelope
from repro.sql import plan_query
from repro.stream import Batch, Field, Schema

SCHEMA = Schema(
    [
        Field("ts", "int", 8),
        Field("k", "int", 4),
        Field("v", "float", 4, decimals=2),
    ]
)
QUERY = "select ts, k, avg(v) as m from S [range 8 slide 8] group by k"


def make_compressed(n=64, seed=0):
    rng = np.random.default_rng(seed)
    batch = Batch.from_values(
        SCHEMA,
        {
            "ts": np.arange(n) + 100,
            "k": rng.integers(0, 4, n),
            "v": np.round(rng.integers(0, 200, n) / 4, 2),
        },
    )
    plan = plan_query(QUERY, {"S": SCHEMA})
    client = Client(SCHEMA, StaticSelector("ns"), plan.profile)
    return client.compress_batch(batch).batch


def make_transport(profile=None, config=None):
    channel = FaultyChannel(Channel(bandwidth_mbps=100.0), profile=profile)
    return ReliableTransport(channel, SCHEMA, config)


class TestEnvelope:
    def test_roundtrip(self):
        env = pack_envelope(7, b"payload")
        assert unpack_envelope(env) == (7, b"payload")

    def test_seq_range_enforced(self):
        with pytest.raises(TransportError):
            pack_envelope(-1, b"x")
        with pytest.raises(TransportError):
            pack_envelope(1 << 32, b"x")

    def test_short_envelope_rejected(self):
        with pytest.raises(TransportError):
            unpack_envelope(b"CS")

    def test_bit_flip_anywhere_detected(self):
        env = bytearray(pack_envelope(3, b"some frame bytes"))
        for pos in range(len(env)):
            flipped = bytearray(env)
            flipped[pos] ^= 0x10
            with pytest.raises(TransportError):
                unpack_envelope(bytes(flipped))

    def test_corrupted_seq_is_caught_not_misrouted(self):
        # the envelope CRC covers the header: a bit-flip in the sequence
        # number must fail validation, not dedup against the wrong seq
        env = bytearray(pack_envelope(0, b"frame"))
        env[4] ^= 0x01  # first byte of the little-endian seq field
        with pytest.raises(TransportError):
            unpack_envelope(bytes(env))


class TestReliabilityConfig:
    def test_backoff_grows_and_caps(self):
        cfg = ReliabilityConfig(backoff_base_s=0.01, backoff_cap_s=0.05)
        assert cfg.backoff_s(0) == pytest.approx(0.01)
        assert cfg.backoff_s(1) == pytest.approx(0.02)
        assert cfg.backoff_s(2) == pytest.approx(0.04)
        assert cfg.backoff_s(3) == pytest.approx(0.05)  # capped
        assert cfg.backoff_s(20) == pytest.approx(0.05)

    def test_backoff_past_the_float_range_is_the_cap(self):
        # 2.0 ** 1100 overflows a float; the capped backoff must not
        cfg = ReliabilityConfig()
        assert cfg.backoff_s(1100) == cfg.backoff_cap_s

    def test_validation(self):
        with pytest.raises(TransportError):
            ReliabilityConfig(max_retries=-1)
        with pytest.raises(TransportError):
            ReliabilityConfig(rto_s=-0.1)


class TestReliableTransport:
    def test_requires_faulty_channel(self):
        with pytest.raises(TransportError):
            ReliableTransport(Channel(bandwidth_mbps=10.0), SCHEMA)

    def test_clean_link_first_try(self):
        transport = make_transport()
        compressed = make_compressed()
        outcome = transport.send_batch(compressed)
        assert outcome.attempts == 1
        assert not outcome.quarantined
        assert outcome.delivered.nbytes == compressed.nbytes
        assert transport.report.detected == 0
        assert transport.report.retry_seconds == 0.0

    def test_delivered_batch_decodes_to_original_values(self):
        transport = make_transport(FaultProfile(corrupt_rate=0.5, seed=2))
        compressed = make_compressed()
        outcome = transport.send_batch(compressed)
        delivered = outcome.delivered
        for name in ("ts", "k", "v"):
            codec = get_codec(delivered.columns[name].codec)
            np.testing.assert_array_equal(
                codec.decompress(delivered.columns[name]),
                get_codec(compressed.columns[name].codec).decompress(
                    compressed.columns[name]
                ),
            )

    def test_drop_triggers_timeout_and_retry(self):
        # seed chosen so the first copy drops and a retry succeeds
        transport = make_transport(
            FaultProfile(drop_rate=0.5, seed=1),
            ReliabilityConfig(rto_s=0.1, backoff_base_s=0.01),
        )
        report = transport.report
        sent = 0
        while report.detected == 0:
            outcome = transport.send_batch(make_compressed(seed=sent))
            sent += 1
            assert not outcome.quarantined  # 50% loss always recovers here
        assert report.timeouts > 0
        assert report.retried > 0
        assert report.recovered == report.detected
        assert report.retry_seconds > 0

    def test_corruption_detected_and_retried(self):
        transport = make_transport(
            FaultProfile(corrupt_rate=1.0, seed=3), ReliabilityConfig(max_retries=2)
        )
        outcome = transport.send_batch(make_compressed())
        # every attempt arrives mangled: CRC catches each, then quarantine
        assert outcome.quarantined
        assert outcome.attempts == 3
        assert transport.report.corrupt_frames == 3
        assert transport.report.quarantined == 1

    def test_total_loss_quarantines_after_max_retries(self):
        cfg = ReliabilityConfig(max_retries=4)
        transport = make_transport(FaultProfile(drop_rate=1.0), cfg)
        compressed = make_compressed()
        outcome = transport.send_batch(compressed)
        assert outcome.quarantined
        assert outcome.attempts == cfg.max_retries + 1
        report = transport.report
        assert report.timeouts == cfg.max_retries + 1
        assert report.quarantined == 1
        assert report.quarantined_tuples == compressed.n
        [letter] = report.dead_letters
        assert letter.seq == 0
        assert letter.attempts == cfg.max_retries + 1

    def test_duplicates_deduplicated_by_seq(self):
        transport = make_transport(FaultProfile(duplicate_rate=1.0))
        outcome = transport.send_batch(make_compressed())
        assert not outcome.quarantined
        assert outcome.attempts == 1
        assert transport.report.duplicates_discarded == 1
        assert transport.report.detected == 0  # a dup is not a failure

    def test_stall_charges_virtual_time(self):
        stalled = make_transport(FaultProfile(stall_rate=1.0))
        clean = make_transport()
        compressed = make_compressed()
        slow = stalled.send_batch(compressed)
        fast = clean.send_batch(compressed)
        assert slow.seconds == pytest.approx(fast.seconds + STALL_S)

    def test_retransmissions_count_bytes_on_wire(self):
        transport = make_transport(
            FaultProfile(drop_rate=1.0), ReliabilityConfig(max_retries=3)
        )
        outcome = transport.send_batch(make_compressed())
        assert outcome.bytes_on_wire == transport.channel.bytes_sent
        assert outcome.bytes_on_wire % outcome.attempts == 0

    def test_invariant_detected_eq_recovered_plus_quarantined(self):
        transport = make_transport(
            FaultProfile(
                drop_rate=0.4,
                corrupt_rate=0.3,
                truncate_rate=0.2,
                duplicate_rate=0.2,
                seed=13,
            ),
            ReliabilityConfig(max_retries=2),
        )
        for i in range(30):
            transport.send_batch(make_compressed(seed=i))
        report = transport.report
        assert report.detected > 0
        assert report.detected == report.recovered + report.quarantined


def run_engine(profile, fast_calibration, batches=4, collect=True, **cfg):
    q1 = QUERIES["q1"]
    engine = CompressStreamDB(
        q1.catalog,
        q1.text(slide=q1.window),
        EngineConfig(
            mode="adaptive",
            calibration=fast_calibration,
            profile_query=False,
            fault_profile=profile,
            reliability=cfg.pop("reliability", ReliabilityConfig(max_retries=6)),
            **cfg,
        ),
    )
    return engine.run(
        smart_grid.source(batch_size=q1.window * 4, batches=batches, seed=11),
        collect_outputs=collect,
    )


class TestEndToEndRecovery:
    def test_lossy_run_matches_clean_run_bit_for_bit(self, fast_calibration):
        clean = run_engine(None, fast_calibration)
        lossy = run_engine(
            FaultProfile(drop_rate=0.05, corrupt_rate=0.05, seed=7),
            fast_calibration,
        )
        faults = lossy.faults
        assert faults is not None
        assert faults.detected == faults.recovered + faults.quarantined
        assert faults.quarantined == 0
        assert lossy.delivered_tuples == lossy.tuples
        for name in clean.outputs.columns:
            np.testing.assert_array_equal(
                clean.outputs.columns[name], lossy.outputs.columns[name]
            )

    def test_heavy_loss_still_never_corrupts_output(self, fast_calibration):
        clean = run_engine(None, fast_calibration, batches=6)
        lossy = run_engine(
            FaultProfile(
                drop_rate=0.3,
                corrupt_rate=0.3,
                truncate_rate=0.2,
                duplicate_rate=0.2,
                seed=5,
            ),
            fast_calibration,
            batches=6,
        )
        faults = lossy.faults
        assert faults.injected_total > 0
        assert faults.detected == faults.recovered + faults.quarantined
        if faults.quarantined == 0:
            for name in clean.outputs.columns:
                np.testing.assert_array_equal(
                    clean.outputs.columns[name], lossy.outputs.columns[name]
                )

    def test_dead_link_terminates_cleanly(self, fast_calibration):
        report = run_engine(
            FaultProfile(drop_rate=1.0),
            fast_calibration,
            reliability=ReliabilityConfig(max_retries=2),
        )
        faults = report.faults
        assert faults.quarantined == report.profiler.batches
        assert faults.recovered == 0
        assert faults.detected == faults.quarantined
        assert report.delivered_tuples == 0
        assert report.goodput == 0.0
        assert len(faults.dead_letters) == faults.quarantined
        # outputs exist but are empty: nothing was processed
        assert report.outputs.n_rows == 0

    def test_fault_report_absent_on_clean_config(self, fast_calibration):
        report = run_engine(None, fast_calibration, reliability=None)
        assert report.faults is None

    def test_queued_channel_composes(self, fast_calibration):
        from repro.core import SystemParams

        report = run_engine(
            FaultProfile(drop_rate=0.2, seed=3),
            fast_calibration,
            params=SystemParams(arrival_rate_tps=2_000_000.0),
        )
        faults = report.faults
        assert faults.detected == faults.recovered + faults.quarantined
        assert report.delivered_tuples + faults.quarantined_tuples == report.tuples

    def test_multihop_per_hop_profiles_compose(self, fast_calibration):
        def factory():
            return FaultyChannel(
                MultiHopChannel(
                    [Hop("uplink", 20.0, 0.002), Hop("backbone", 1000.0, 0.01)]
                ),
                hop_profiles=[
                    FaultProfile(drop_rate=0.3, corrupt_rate=0.2, seed=4),
                    FaultProfile(),  # clean backbone
                ],
            )

        report = run_engine(
            None, fast_calibration, channel_factory=factory, batches=6
        )
        faults = report.faults
        assert faults.injected_total > 0
        assert faults.detected == faults.recovered + faults.quarantined
        assert report.delivered_tuples + faults.quarantined_tuples == report.tuples


class _AlwaysFailCodec:
    """A codec stub whose compression always explodes on live data."""

    name = "flaky"

    def compress(self, values):
        raise CodecError("synthetic failure")


class _FlakySelector(SelectorBase):
    """Selects the failing codec until the caller demotes it."""

    def __init__(self):
        self._flaky = _AlwaysFailCodec()
        self._identity = get_codec("identity")

    def select(self, stats_by_column, profile, size_b, excluded=None):
        excluded = excluded or {}
        return {
            name: (
                self._identity
                if self._flaky.name in excluded.get(name, set())
                else self._flaky
            )
            for name in stats_by_column
        }


class TestCodecDemotion:
    def make_client(self):
        plan = plan_query(QUERY, {"S": SCHEMA})
        return Client(SCHEMA, _FlakySelector(), plan.profile, redecide_every=1)

    def batch(self, seed=0):
        rng = np.random.default_rng(seed)
        return Batch.from_values(
            SCHEMA,
            {
                "ts": np.arange(32) + 1,
                "k": rng.integers(0, 4, 32),
                "v": np.round(rng.integers(0, 100, 32) / 4, 2),
            },
        )

    def test_failures_fall_back_to_identity_each_batch(self):
        client = self.make_client()
        outcome = client.compress_batch(self.batch())
        assert all(c == "identity" for c in outcome.choices.values())
        assert not client.demotions  # below the threshold

    def test_demotion_at_threshold_and_recorded(self):
        client = self.make_client()
        for i in range(client_module.DEMOTE_AFTER - 1):
            client.compress_batch(self.batch(seed=i))
        assert not client.demotions
        client.compress_batch(self.batch(seed=9))
        assert client.demotions  # every column hit the threshold
        demoted = client.demoted_codecs
        assert set(demoted) == {"ts", "k", "v"}
        assert all(codecs == {"flaky"} for codecs in demoted.values())
        incident = client.demotions[0]
        assert incident.codec == "flaky"
        assert incident.failures == client_module.DEMOTE_AFTER
        assert "CodecError" in incident.reason

    def test_demoted_codec_never_reselected(self):
        client = self.make_client()
        for i in range(6):
            outcome = client.compress_batch(self.batch(seed=i))
        # redecide_every=1: post-demotion re-decisions must honor excluded
        assert all(c == "identity" for c in outcome.choices.values())
        assert len(client.demotions) == 3  # once per column, never again

    def test_demotions_surface_in_run_report(self, fast_calibration, monkeypatch):
        monkeypatch.setattr(client_module, "DEMOTE_AFTER", 1)
        report = run_engine(FaultProfile(drop_rate=0.1, seed=2), fast_calibration)
        # a healthy adaptive run demotes nothing, but the field is wired
        assert report.faults.codec_demotions == []
