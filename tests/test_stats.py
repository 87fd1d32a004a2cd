"""Statistics: confidence intervals, metrics, sink collection, summaries."""

import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.stats.collector as collector_module
from repro import multi_hop_config
from repro.models.scenario import build_network
from repro.net.packets import DataPacket
from repro.sim import Simulator
from repro.stats import (
    ENERGY_TOTAL,
    RunResult,
    SinkCollector,
    j_per_bit_to_j_per_kbit,
    mean_confidence,
    merge_counters,
    summarize_runs,
)


class TestConfidence:
    def test_mean(self):
        estimate = mean_confidence([1.0, 2.0, 3.0])
        assert estimate.mean == 2.0
        assert estimate.n == 3

    def test_single_sample_zero_width(self):
        estimate = mean_confidence([5.0])
        assert estimate.half_width == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_confidence([])

    def test_invalid_confidence(self):
        with pytest.raises(ValueError):
            mean_confidence([1.0], confidence=1.5)

    def test_known_t_interval(self):
        """n=20, std=1: half width = t(0.975, 19) / sqrt(20) = 0.468."""
        values = [0.0, 1.0] * 10  # mean .5, sample std ~0.513
        estimate = mean_confidence(values)
        std = math.sqrt(sum((v - 0.5) ** 2 for v in values) / 19)
        expected = 2.093 * std / math.sqrt(20)
        assert estimate.half_width == pytest.approx(expected, rel=1e-3)

    def test_bounds(self):
        estimate = mean_confidence([2.0, 4.0, 6.0, 8.0])
        assert estimate.low == estimate.mean - estimate.half_width
        assert estimate.high == estimate.mean + estimate.half_width

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=50,
        )
    )
    def test_property_mean_inside_interval(self, values):
        estimate = mean_confidence(values)
        assert estimate.low <= estimate.mean <= estimate.high

    @given(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        st.integers(min_value=2, max_value=30),
    )
    def test_property_constant_sample_zero_width(self, value, n):
        estimate = mean_confidence([value] * n)
        assert estimate.half_width == pytest.approx(0.0, abs=1e-9)


def result(generated=1000.0, delivered=800.0, energy=2.0, delay=1.0):
    return RunResult(
        model="dual",
        sim_time_s=100.0,
        generated_bits=generated,
        delivered_bits=delivered,
        mean_delay_s=delay,
        max_delay_s=delay * 2,
        energy_j={ENERGY_TOTAL: energy},
    )


class TestRunResult:
    def test_goodput(self):
        assert result().goodput == pytest.approx(0.8)

    def test_goodput_no_traffic(self):
        assert result(generated=0.0, delivered=0.0).goodput == 0.0

    def test_normalized_energy(self):
        assert result().normalized_energy() == pytest.approx(2.0 / 800.0)

    def test_normalized_energy_j_per_kbit(self):
        assert result().normalized_energy_j_per_kbit() == pytest.approx(
            1000 * 2.0 / 800.0
        )

    def test_undelivered_energy_infinite(self):
        assert result(delivered=0.0).normalized_energy() == float("inf")

    def test_units_conversion(self):
        assert j_per_bit_to_j_per_kbit(0.001) == 1.0


class TestMergeCounters:
    def test_sums_by_name(self):
        merged = merge_counters({"a": 1.0, "b": 2.0}, {"a": 3.0})
        assert merged == {"a": 4.0, "b": 2.0}


class TestSinkCollector:
    def test_records_delivery_and_delay(self):
        sim = Simulator(seed=1)
        collector = SinkCollector(sim, sink_id=0)

        def deliver_later():
            yield sim.timeout(2.0)
            collector.deliver(DataPacket(src=5, dst=0, payload_bits=256,
                                         created_s=0.5))

        sim.process(deliver_later())
        sim.run()
        assert collector.packets_delivered == 1
        assert collector.bits_delivered == 256
        assert list(collector.delays_s) == [1.5]
        assert collector.per_source == {5: 1}

    def test_duplicates_excluded(self):
        sim = Simulator(seed=1)
        collector = SinkCollector(sim, sink_id=0)
        packet = DataPacket(src=5, dst=0, payload_bits=256, created_s=0.0)
        collector.deliver(packet)
        collector.deliver(packet)
        assert collector.packets_delivered == 1
        assert collector.duplicates == 1

    def test_wrong_destination_rejected(self):
        sim = Simulator(seed=1)
        collector = SinkCollector(sim, sink_id=0)
        with pytest.raises(ValueError):
            collector.deliver(DataPacket(src=5, dst=3, payload_bits=8,
                                         created_s=0.0))

    def test_delay_statistics(self):
        sim = Simulator(seed=1)
        collector = SinkCollector(sim, sink_id=0)
        assert collector.mean_delay_s == 0.0
        assert collector.max_delay_s == 0.0


class _ReferenceSink:
    """The collector's semantics written plainly: a set and two lists."""

    def __init__(self, sink_id):
        self.sink_id = sink_id
        self.seen = set()
        self.delays = []
        self.hops = []
        self.bits = 0
        self.duplicates = 0
        self.per_source = {}

    def deliver(self, packet, now):
        if packet.dst != self.sink_id:
            raise ValueError(
                f"sink {self.sink_id} received a packet addressed to {packet.dst}"
            )
        if packet.packet_id in self.seen:
            self.duplicates += 1
            return
        self.seen.add(packet.packet_id)
        self.bits += packet.payload_bits
        self.delays.append(now - packet.created_s)
        self.hops.append(packet.hops)
        self.per_source[packet.src] = self.per_source.get(packet.src, 0) + 1


def _state(collector):
    return (
        collector.packets_delivered,
        collector.bits_delivered,
        collector.duplicates,
        list(collector.delays_s),
        collector.hops_total,
        collector.per_source,
        collector.mean_delay_s,
        collector.max_delay_s,
        collector.mean_hops,
    )


def _reference_state(reference):
    delays = reference.delays
    return (
        len(delays),
        reference.bits,
        reference.duplicates,
        delays,
        sum(reference.hops),
        reference.per_source,
        sum(delays) / len(delays) if delays else 0.0,
        max(delays) if delays else 0.0,
        sum(reference.hops) / len(reference.hops) if reference.hops else 0.0,
    )


#: A packet id relative to the collector's construction anchor: below it,
#: in the dense range, just past a growth step, or far above it.
_id_offsets = st.one_of(
    st.integers(-40, -1),
    st.integers(0, 300),
    st.integers(4000, 9000),
    st.integers(10**6, 10**6 + 40),
)

_packet_specs = st.tuples(
    _id_offsets,
    st.integers(1, 6),  # src
    st.sampled_from([0, 0, 0, 0, 0, 0, 0, 7]),  # dst (sink 0)
    st.floats(0.0, 50.0, allow_nan=False),  # created_s
    st.integers(0, 5),  # hops
)


class TestDeliverMany:
    @settings(max_examples=100, deadline=None)
    @given(
        runs=st.lists(
            st.lists(_packet_specs, max_size=12).map(tuple), max_size=10
        ),
        repeat=st.booleans(),
    )
    def test_matches_per_packet_delivery(self, runs, repeat):
        if repeat:  # deliver every run twice: all-duplicate runs
            runs = [run for run in runs for _ in range(2)]
        sim = Simulator(seed=1)
        bulk = SinkCollector(sim, sink_id=0)
        single = SinkCollector(sim, sink_id=0)
        reference = _ReferenceSink(0)
        base = bulk._id_base
        for step, run in enumerate(runs):
            sim.run(until=50.0 + step * 1.25)
            packets = []
            for offset, src, dst, created_s, hops in run:
                packet = DataPacket(
                    src=src,
                    dst=dst,
                    payload_bits=256,
                    created_s=created_s,
                    packet_id=base + offset,
                )
                packet.hops = hops
                packets.append(packet)
            errors = []
            for sink, deliver in (
                (bulk, lambda: bulk.deliver_many(packets)),
                (single, lambda: [single.deliver(p) for p in packets]),
                (
                    reference,
                    lambda: [reference.deliver(p, sim.now) for p in packets],
                ),
            ):
                try:
                    deliver()
                except ValueError as exc:
                    errors.append(str(exc))
            assert len(errors) in (0, 3)
            assert len(set(errors)) <= 1
            expected = _reference_state(reference)
            assert _state(bulk) == expected
            assert _state(single) == expected

    def test_mean_delay_is_the_plain_float_sum(self):
        sim = Simulator(seed=1)
        collector = SinkCollector(sim, sink_id=0)
        delays = [0.1, 1e16, 0.3, -1e16 + 2.0, 0.7]
        sim.run(until=1e16)
        collector.deliver_many(
            [
                DataPacket(src=1, dst=0, payload_bits=8, created_s=1e16 - d)
                for d in delays
            ]
        )
        recorded = [1e16 - (1e16 - d) for d in delays]
        assert list(collector.delays_s) == recorded
        assert collector.mean_delay_s == sum(recorded) / len(recorded)
        assert collector.max_delay_s == max(recorded)


def test_sink_accounting_memory_is_bounded_per_delivery():
    """A small paper-MH cell allocates at most 16 B per delivered packet
    (plus 64 KiB) in the collector: no per-packet Python objects live."""
    config = multi_hop_config(seed=1, sim_time_s=50.0, burst_packets=100)
    sim = Simulator(seed=config.seed)
    tracemalloc.start()
    try:
        built = build_network(config, sim)
        sim.run(until=config.sim_time_s)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    collector = built.collector
    assert collector.packets_delivered > 1000
    allocated = sum(
        stat.size
        for stat in snapshot.filter_traces(
            [tracemalloc.Filter(True, collector_module.__file__)]
        ).statistics("filename")
    )
    assert allocated <= 16 * collector.packets_delivered + 64 * 1024


class TestSummarize:
    def test_aggregates_runs(self):
        results = [result(delivered=800.0), result(delivered=900.0)]
        summary = summarize_runs(results)
        assert summary.n_runs == 2
        assert summary.goodput.mean == pytest.approx((0.8 + 0.9) / 2)
        assert summary.undelivered_runs == 0

    def test_undelivered_runs_excluded_from_energy(self):
        results = [result(), result(delivered=0.0)]
        summary = summarize_runs(results)
        assert summary.undelivered_runs == 1
        assert summary.normalized_energy_j_per_kbit is not None
        assert summary.normalized_energy_j_per_kbit.n == 1

    def test_all_undelivered(self):
        summary = summarize_runs([result(delivered=0.0)])
        assert summary.normalized_energy_j_per_kbit is None
        assert summary.row()["energy_j_per_kbit"] == float("inf")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_runs([])

    def test_row_shape(self):
        row = summarize_runs([result()]).row()
        assert set(row) == {
            "goodput",
            "goodput_ci",
            "energy_j_per_kbit",
            "energy_ci",
            "delay_s",
            "delay_ci",
        }
