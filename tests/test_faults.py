"""Unit tests for seeded fault injection (repro.net.faults)."""

import pytest

from repro.errors import ChannelError
from repro.net import (
    Channel,
    FaultInjector,
    FaultProfile,
    FaultyChannel,
    Hop,
    MultiHopChannel,
    QueuedChannel,
)
from repro.net.faults import STALL_S

FRAME = bytes(range(256)) * 4


class TestFaultProfile:
    def test_default_is_lossless(self):
        assert FaultProfile().is_lossless

    def test_lossy_helper(self):
        p = FaultProfile.lossy(0.25, seed=3)
        assert p.drop_rate == p.corrupt_rate == 0.25
        assert not p.is_lossless

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan"), float("inf")])
    def test_rates_must_be_probabilities(self, bad):
        with pytest.raises(ChannelError):
            FaultProfile(drop_rate=bad)
        with pytest.raises(ChannelError):
            FaultProfile(stall_rate=bad)



class TestFaultInjector:
    def test_lossless_profile_passes_frames_through(self):
        inj = FaultInjector(FaultProfile())
        assert inj.apply(FRAME) == [(FRAME, 0.0)]
        assert inj.injected_total == 0

    def test_empty_frame_rejected(self):
        with pytest.raises(ChannelError):
            FaultInjector(FaultProfile()).apply(b"")

    def test_certain_drop(self):
        inj = FaultInjector(FaultProfile(drop_rate=1.0))
        assert inj.apply(FRAME) == []
        assert inj.counts["drop"] == 1

    def test_certain_corrupt_flips_bits(self):
        inj = FaultInjector(FaultProfile(corrupt_rate=1.0))
        [(payload, delay)] = inj.apply(FRAME)
        assert payload != FRAME
        assert len(payload) == len(FRAME)
        assert delay == 0.0

    def test_certain_truncate_shortens(self):
        inj = FaultInjector(FaultProfile(truncate_rate=1.0, seed=5))
        [(payload, _)] = inj.apply(FRAME)
        assert len(payload) < len(FRAME)
        assert FRAME.startswith(payload)

    def test_certain_duplicate_delivers_two(self):
        inj = FaultInjector(FaultProfile(duplicate_rate=1.0))
        assert inj.apply(FRAME) == [(FRAME, 0.0), (FRAME, 0.0)]
        assert inj.counts["duplicate"] == 1

    def test_certain_stall_charges_delay(self):
        inj = FaultInjector(FaultProfile(stall_rate=1.0))
        assert inj.apply(FRAME) == [(FRAME, STALL_S)]

    def test_same_seed_replays_identically(self):
        p = FaultProfile(
            drop_rate=0.3,
            corrupt_rate=0.3,
            truncate_rate=0.2,
            duplicate_rate=0.2,
            stall_rate=0.2,
            seed=9,
        )
        a, b = FaultInjector(p), FaultInjector(p)
        for _ in range(200):
            assert a.apply(FRAME) == b.apply(FRAME)
        assert a.counts == b.counts
        assert a.injected_total > 0

    def test_different_seeds_diverge(self):
        pa = FaultProfile(drop_rate=0.5, seed=1)
        pb = FaultProfile(drop_rate=0.5, seed=2)
        a, b = FaultInjector(pa), FaultInjector(pb)
        results_a = [a.apply(FRAME) for _ in range(100)]
        results_b = [b.apply(FRAME) for _ in range(100)]
        assert results_a != results_b

    def test_all_kinds_eventually_fire(self):
        inj = FaultInjector(
            FaultProfile(
                drop_rate=0.2,
                corrupt_rate=0.2,
                truncate_rate=0.2,
                duplicate_rate=0.2,
                stall_rate=0.2,
                seed=3,
            )
        )
        for _ in range(300):
            inj.apply(FRAME)
        assert all(count > 0 for count in inj.counts.values())


class TestFaultyChannel:
    def test_timing_delegates_to_inner(self):
        inner = Channel(bandwidth_mbps=8.0, latency_s=0.25)
        faulty = FaultyChannel(inner, FaultProfile.lossy(0.5))
        assert faulty.transmit_seconds(10**6) == inner.transmit_seconds(10**6)

    def test_counters_mirror_inner(self):
        faulty = FaultyChannel(Channel(bandwidth_mbps=100.0))
        faulty.transmit(1000)
        faulty.transmit(2000)
        assert faulty.bytes_sent == faulty.inner.bytes_sent == 3000
        assert faulty.batches_sent == 2
        faulty.reset()
        assert faulty.bytes_sent == faulty.inner.bytes_sent == 0

    def test_ship_over_a_plain_link_ignores_ready_time(self):
        inner = Channel(bandwidth_mbps=100.0)
        faulty = FaultyChannel(inner)
        assert faulty.ship(100, ready_time=5.0) == inner.transmit_seconds(100)
        assert faulty.bytes_sent == inner.bytes_sent == 100

    def test_ship_queues_on_a_queued_inner(self):
        inner = QueuedChannel(bandwidth_mbps=100.0)
        faulty = FaultyChannel(inner)
        wire = inner.transmit_seconds(1000)
        assert faulty.ship(1000, ready_time=0.0) == wire
        # the link is busy until ``wire``: the second batch queues behind it
        assert faulty.ship(1000, ready_time=0.0) == 2 * wire
        assert inner.queue_seconds == wire
        assert faulty.bytes_sent == inner.bytes_sent == 2000
        # no ready time: not an arrival-modelled batch, nothing queues
        assert faulty.ship(1000) == wire

    def test_cannot_nest(self):
        faulty = FaultyChannel(Channel(bandwidth_mbps=10.0))
        with pytest.raises(ChannelError):
            FaultyChannel(faulty)

    def test_profile_and_hop_profiles_exclusive(self):
        link = MultiHopChannel([Hop("up", 10.0), Hop("down", 10.0)])
        with pytest.raises(ChannelError):
            FaultyChannel(
                link,
                profile=FaultProfile(),
                hop_profiles=[FaultProfile(), FaultProfile()],
            )

    def test_hop_profiles_require_multihop(self):
        with pytest.raises(ChannelError):
            FaultyChannel(Channel(bandwidth_mbps=10.0), hop_profiles=[FaultProfile()])

    def test_hop_profile_count_must_match(self):
        link = MultiHopChannel([Hop("up", 10.0), Hop("down", 10.0)])
        with pytest.raises(ChannelError):
            FaultyChannel(link, hop_profiles=[FaultProfile()])

    def test_clean_deliver_roundtrips(self):
        faulty = FaultyChannel(Channel(bandwidth_mbps=10.0))
        assert faulty.deliver(FRAME) == [(FRAME, 0.0)]

    def test_per_hop_drop_composes(self):
        # hop 0 drops everything: nothing reaches (or is counted at) hop 1
        link = MultiHopChannel([Hop("up", 10.0), Hop("down", 10.0)])
        faulty = FaultyChannel(
            link,
            hop_profiles=[
                FaultProfile(drop_rate=1.0),
                FaultProfile(corrupt_rate=1.0),
            ],
        )
        assert faulty.deliver(FRAME) == []
        assert faulty.injected_counts["drop"] == 1
        assert faulty.injected_counts["corrupt"] == 0

    def test_duplicate_then_corrupt_faults_copies_independently(self):
        link = MultiHopChannel([Hop("up", 10.0), Hop("down", 10.0)])
        faulty = FaultyChannel(
            link,
            hop_profiles=[
                FaultProfile(duplicate_rate=1.0),
                FaultProfile(corrupt_rate=0.5, seed=4),
            ],
        )
        copies = [payload for payload, _ in faulty.deliver(FRAME)]
        assert len(copies) == 2
        # with corrupt_rate=0.5 each copy is drawn independently, so over a
        # few frames we must observe both a mangled and an intact copy
        for _ in range(20):
            copies.extend(p for p, _ in faulty.deliver(FRAME))
        assert any(c != FRAME for c in copies)
        assert any(c == FRAME for c in copies)

    def test_stall_delays_accumulate_across_hops(self):
        link = MultiHopChannel([Hop("up", 10.0), Hop("down", 10.0)])
        faulty = FaultyChannel(
            link,
            hop_profiles=[
                FaultProfile(stall_rate=1.0),
                FaultProfile(stall_rate=1.0),
            ],
        )
        assert faulty.deliver(FRAME) == [(FRAME, pytest.approx(2 * STALL_S))]

    def test_fully_truncated_frame_not_forwarded(self):
        # a truncation to zero bytes upstream must read as a drop downstream,
        # not crash the next hop's injector
        link = MultiHopChannel([Hop("up", 10.0), Hop("down", 10.0)])
        faulty = FaultyChannel(
            link,
            hop_profiles=[
                FaultProfile(truncate_rate=1.0, seed=0),
                FaultProfile(),
            ],
        )
        for _ in range(50):
            for payload, _delay in faulty.deliver(FRAME):
                assert payload  # empty payloads never surface
