"""Traffic generators: rates, jitter, stop times, accounting."""

import hashlib

import pytest

from repro.sim import Simulator
from repro.traffic import AudioBurstSource, CbrSource, PoissonSource

from tests.runs import Collect


@pytest.fixture
def sim():
    return Simulator(seed=21)


class TestCbr:
    def test_rate_achieved(self, sim):
        packets = Collect()
        CbrSource(sim, 1, 0, packets, rate_bps=200.0, payload_bytes=32)
        sim.run(until=1280.0)  # 1000 intervals of 1.28 s
        assert 995 <= len(packets) <= 1001

    def test_interval_from_rate(self, sim):
        source = CbrSource(sim, 1, 0, lambda p: None, rate_bps=2000.0)
        assert source.interval_s == pytest.approx(256 / 2000.0)

    def test_packets_well_formed(self, sim):
        packets = Collect()
        CbrSource(sim, 3, 0, packets, rate_bps=200.0)
        sim.run(until=10.0)
        for packet in packets:
            assert packet.src == 3
            assert packet.dst == 0
            assert packet.payload_bits == 256
            assert packet.created_s <= sim.now

    def test_stop_time_respected(self, sim):
        packets = Collect()
        CbrSource(sim, 1, 0, packets, rate_bps=2000.0, stop_s=5.0)
        sim.run(until=100.0)
        assert all(packet.created_s < 5.0 + 0.129 for packet in packets)
        count_at_stop = len(packets)
        sim.run()
        assert len(packets) == count_at_stop

    def test_stats_track_generation(self, sim):
        source = CbrSource(sim, 1, 0, lambda p: None, rate_bps=200.0)
        sim.run(until=12.8)
        assert source.stats.packets_generated >= 9
        assert source.stats.bits_generated == (
            source.stats.packets_generated * 256
        )

    def test_start_jitter_desynchronizes(self):
        def first_emission(node_id):
            sim = Simulator(seed=50)
            packets = Collect()
            CbrSource(sim, node_id, 0, packets, rate_bps=200.0)
            sim.run(until=3.0)
            return packets[0].created_s

        assert first_emission(1) != first_emission(2)

    def test_invalid_rate(self, sim):
        with pytest.raises(ValueError):
            CbrSource(sim, 1, 0, lambda p: None, rate_bps=0.0)


class TestPoisson:
    def test_mean_rate(self, sim):
        packets = Collect()
        PoissonSource(sim, 1, 0, packets, mean_rate_bps=2000.0)
        sim.run(until=1000.0)
        # Expected ~7812 packets; allow 5% tolerance.
        assert 7400 <= len(packets) <= 8200

    def test_interarrivals_vary(self, sim):
        packets = Collect()
        PoissonSource(sim, 1, 0, packets, mean_rate_bps=2000.0)
        sim.run(until=50.0)
        gaps = {
            round(b.created_s - a.created_s, 6)
            for a, b in zip(packets, packets[1:])
        }
        assert len(gaps) > 10

    def test_invalid_rate(self, sim):
        with pytest.raises(ValueError):
            PoissonSource(sim, 1, 0, lambda p: None, mean_rate_bps=-1.0)


class TestAudioBurst:
    def test_bursts_are_dense(self, sim):
        packets = Collect()
        AudioBurstSource(
            sim,
            1,
            0,
            packets,
            burst_rate_bps=64_000.0,
            burst_duration_s=1.0,
            mean_silence_s=30.0,
        )
        sim.run(until=300.0)
        assert len(packets) > 500  # several bursts of ~250 packets each

    def test_silence_between_bursts(self, sim):
        packets = Collect()
        AudioBurstSource(
            sim,
            1,
            0,
            packets,
            burst_rate_bps=64_000.0,
            burst_duration_s=0.5,
            mean_silence_s=60.0,
        )
        sim.run(until=600.0)
        gaps = [
            b.created_s - a.created_s for a, b in zip(packets, packets[1:])
        ]
        assert max(gaps) > 5.0  # real silence exists
        assert min(gaps) < 0.01  # burst density exists

    def test_invalid_parameters(self, sim):
        with pytest.raises(ValueError):
            AudioBurstSource(sim, 1, 0, lambda p: None, burst_rate_bps=0.0)


# -- schedule pins ------------------------------------------------------
#
# Each source's exact emission schedule: the first packets' ``created_s``
# to the last ulp, the packet count at the horizon and the kernel event
# count.  The pinned golden digests depend on every one of these
# timestamps and on the order of the rng draws behind them.  The event
# counts are one per emission, plus the stopped chain's last timeout and
# the kill event in the killed runs.


def _schedule_digest(packets, limit=200):
    text = ",".join(
        f"{packet.src}:{packet.created_s.hex()}" for packet in packets[:limit]
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _build_source(kind, sim, node_id, submit, stop_s=None):
    if kind == "cbr":
        return CbrSource(
            sim, node_id, 0, submit, rate_bps=2000.0, start_jitter_s=0.5,
            stop_s=stop_s,
        )
    if kind == "poisson":
        return PoissonSource(
            sim, node_id, 0, submit, mean_rate_bps=2000.0, stop_s=stop_s
        )
    return AudioBurstSource(
        sim, node_id, 0, submit, burst_rate_bps=64_000.0,
        burst_duration_s=0.25, mean_silence_s=5.0, stop_s=stop_s,
    )


#: kind → (schedule digest, packets generated, kernel events) at t=60 s.
SCHEDULE_PINS = {
    "cbr": ("28f677f2e95d1140", 467, 467),
    "poisson": ("af8481cc1ce0e335", 468, 468),
    "audio": ("617b948ee4bb9ed4", 630, 640),
}

#: kind → the same three, with the source stopped at t=20 s the way the
#: fault injector kills a sender (``stop_s = now``) and a stop time of
#: 40 s configured up front.
KILLED_PINS = {
    "cbr": ("368621c8b2323c03", 154, 156),
    "poisson": ("85ccdbdd12f9f3a8", 158, 160),
    "audio": ("7f713382e7f2e42c", 189, 194),
}


#: (schedule digest of every packet, packets, kernel events) for the
#: mixed five-source run below.
INTERLEAVED_PIN = ("b9b3f5708bac9ffb", 1472, 1480)


def _run_schedule(kind, kill_at=None):
    sim = Simulator(seed=7)
    packets = Collect()
    source = _build_source(
        kind, sim, 1, packets, stop_s=None if kill_at is None else 40.0
    )
    if kill_at is not None:
        def kill():
            source.stop_s = sim.now

        sim.call_at(kill_at, kill)
    sim.run(until=60.0)
    assert source.stats.packets_generated == len(packets)
    return (
        _schedule_digest(packets),
        source.stats.packets_generated,
        sim.events_processed,
    )


@pytest.mark.parametrize("kind", sorted(SCHEDULE_PINS))
def test_source_schedule_matches_pin(kind):
    assert _run_schedule(kind) == SCHEDULE_PINS[kind]


@pytest.mark.parametrize("kind", sorted(KILLED_PINS))
def test_killed_source_schedule_matches_pin(kind):
    assert _run_schedule(kind, kill_at=20.0) == KILLED_PINS[kind]


def test_interleaved_sources_keep_their_order():
    """Sources sharing a kernel interleave exactly as pinned.

    Ties at equal timestamps resolve by agenda sequence, so this pins
    the order in which sources schedule their timers, not only each
    source's own times.
    """
    sim = Simulator(seed=3)
    packets = Collect()
    sources = [
        CbrSource(sim, node, 0, packets, rate_bps=2000.0)
        for node in (1, 2, 3)
    ]
    sources.append(_build_source("poisson", sim, 4, packets))
    sources.append(_build_source("audio", sim, 5, packets))
    sim.run(until=30.0)
    assert (
        _schedule_digest(packets, limit=len(packets)),
        len(packets),
        sim.events_processed,
    ) == INTERLEAVED_PIN

