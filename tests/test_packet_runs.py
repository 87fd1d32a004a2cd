"""Packet runs against per-packet reference models.

BCP's bulk path moves packets as id-contiguous runs: the buffer keeps
the prefix of a run that fits and splits at most one run per pop,
assembly cuts runs at the frame budget, and the sink accounts for a run
in bulk.  Each step must leave exactly what handling the packets one at
a time leaves.  The reference models below are that per-packet handling
written plainly; the sink's is ``tests.test_stats.ReferenceSink``.
"""

import types
from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import multi_hop_config, run_scenario
from repro.core import bcp as bcp_module
from repro.core.buffer import BulkBuffer
from repro.core.fragmentation import assemble_burst
from repro.net.packets import PacketRun
from repro.stats.collector import _GROW_SLACK, SinkCollector
from repro.traffic.generators import CbrSource

from tests.runs import unpack
from tests.test_stats import ReferenceSink


class ReferenceBuffer:
    """Per-next-hop FIFOs of single packets with a node-wide byte cap."""

    def __init__(self, capacity_bytes):
        self.capacity_bytes = capacity_bytes
        self.queues = {}
        self.bytes = {}
        self.total = 0.0

    def push(self, hop, packet):
        size = packet.payload_bits / 8
        if self.total + size > self.capacity_bytes:
            return False
        self.queues.setdefault(hop, []).append(packet)
        self.bytes[hop] = self.bytes.get(hop, 0.0) + size
        self.total += size
        return True

    def pop_up_to(self, hop, budget):
        queue = self.queues.get(hop, [])
        popped = []
        while queue and queue[0].payload_bits / 8 <= budget:
            packet = queue.pop(0)
            size = packet.payload_bits / 8
            budget -= size
            self.bytes[hop] -= size
            self.total -= size
            popped.append(packet)
        return popped


def reference_fragments(packets, frame_payload_bytes):
    """Greedy whole-packet packing: the ids in each fragment."""
    budget = frame_payload_bytes * 8
    groups, current, used = [], [], 0
    for packet in packets:
        if used + packet.payload_bits > budget:
            groups.append(current)
            current, used = [], 0
        current.append(packet.packet_id)
        used += packet.payload_bits
    if current:
        groups.append(current)
    return groups


_push = st.tuples(
    st.just("push"),
    st.integers(1, 2),  # next hop
    st.sampled_from([1, 3, 20, 32, 100]),  # payload bytes: mixed sizes
    st.integers(1, 40),  # packets in the run
    st.integers(0, 4),  # hops so far
)
_pop = st.tuples(
    st.just("pop"),
    st.integers(1, 2),
    st.one_of(st.integers(0, 700).map(float), st.just(float("inf"))),
    st.sampled_from([100, 160, 1024]),  # frame payload bytes
    st.booleans(),  # deliver the burst twice (a duplicate delivery)
)
#: A run placed directly at the sink, below the collector's id base or
#: beyond where its dense map may grow.
_stray = st.tuples(
    st.just("stray"),
    st.one_of(st.integers(-60, -1), st.integers(10**6, 10**6 + 60)),
    st.integers(1, 20),
    st.sampled_from([8, 256]),
)
#: A run overlapping one delivered before: shifted by a few ids, so its
#: range is partly seen.
_again = st.tuples(
    st.just("again"),
    st.integers(0, 10**6),  # which earlier delivery
    st.integers(-4, 4),  # id shift
    st.integers(1, 10),
)


@settings(max_examples=150, deadline=None)
@given(
    capacity=st.one_of(st.integers(1, 900).map(float), st.just(float("inf"))),
    steps=st.lists(st.one_of(_push, _pop, _stray, _again), max_size=25),
    reach=st.integers(0, 3000),
)
def test_runs_match_per_packet_models(capacity, steps, reach):
    buffer, reference = BulkBuffer(capacity), ReferenceBuffer(capacity)
    clock = types.SimpleNamespace(now=0.0)
    sink, reference_sink = SinkCollector(clock, 0), ReferenceSink(0)
    # One packet far ahead grows the dense id map, so later runs land
    # inside it (one slice check and mark) or partly seen.
    delivered = [PacketRun(3, 0, 8, sink._id_base + reach, [0.0])]
    sink.deliver_many(delivered)
    reference_sink.deliver_runs(delivered, clock.now)
    for number, step in enumerate(steps):
        clock.now = 10.0 + number * 0.75
        if step[0] == "push":
            _, hop, size, count, hops = step
            run = PacketRun.new(
                5, 0, size * 8, [clock.now - i * 0.125 for i in range(count)]
            )
            run.hops = hops
            expected = [p for p in unpack([run]) if reference.push(hop, p)]
            assert buffer.push_many(hop, run) == len(expected)
        elif step[0] == "pop":
            _, hop, budget, frame_bytes, twice = step
            runs = buffer.pop_up_to(hop, budget)
            expected = reference.pop_up_to(hop, budget)
            assert unpack(runs) == expected
            fragments = assemble_burst(runs, 1, 5, frame_bytes)
            assert [
                [p.packet_id for p in unpack(f.runs)] for f in fragments
            ] == reference_fragments(expected, frame_bytes)
            for fragment in fragments:
                assert fragment.packets == len(unpack(fragment.runs))
                assert fragment.payload_bits == sum(
                    p.payload_bits for p in unpack(fragment.runs)
                )
                for _ in range(1 + twice):
                    sink.deliver_many(fragment.runs)
                    reference_sink.deliver_runs(fragment.runs, clock.now)
                delivered.extend(fragment.runs)
        elif step[0] == "stray":
            _, offset, count, bits = step
            run = PacketRun(
                3, 0, bits, sink._id_base + offset,
                [float(i) for i in range(count)], 1,
            )
            sink.deliver_many([run])
            reference_sink.deliver_runs([run], clock.now)
        else:
            _, index, shift, count = step
            earlier = delivered[index % len(delivered)]
            run = PacketRun(
                earlier.src, 0, earlier.payload_bits, earlier.first_id + shift,
                [float(i) for i in range(count)], earlier.hops,
            )
            sink.deliver_many([run])
            reference_sink.deliver_runs([run], clock.now)
        assert buffer.bytes_for(1) == reference.bytes.get(1, 0.0)
        assert buffer.bytes_for(2) == reference.bytes.get(2, 0.0)
        assert buffer.total_bytes == reference.total
    assert sink.delays_s.tobytes() == array("d", reference_sink.delays).tobytes()
    assert sink.hops_total == sum(reference_sink.hops)
    assert sink.duplicates == reference_sink.duplicates
    assert sink.packets_delivered == len(reference_sink.delays)
    assert sink.bits_delivered == reference_sink.bits


def test_stray_ids_take_the_sparse_set():
    clock = types.SimpleNamespace(now=1.0)
    sink = SinkCollector(clock, 0)
    far = sink._id_base + 2 * len(sink._seen) + _GROW_SLACK + 10
    for first_id in (sink._id_base - 5, far, far):
        sink.deliver_many([PacketRun(1, 0, 8, first_id, [0.0, 0.5], 2)])
    assert (sink.packets_delivered, sink.duplicates) == (4, 2)
    assert list(sink.delays_s) == [1.0, 0.5, 1.0, 0.5]


def test_bulk_path_builds_runs_not_packets(monkeypatch):
    """A paper-MH smoke cell makes far fewer packet objects than packets:
    one per source batch, plus the pieces that buffer and frame
    boundaries cut."""
    counts = {"runs": 0, "takes": 0, "fragments": 0, "pops": 0}

    def counting(name, function, tally=lambda result: 1):
        def wrapper(*args, **kwargs):
            result = function(*args, **kwargs)
            counts[name] += tally(result)
            return result

        return wrapper

    monkeypatch.setattr(PacketRun, "__init__",
                        counting("runs", PacketRun.__init__))
    monkeypatch.setattr(CbrSource, "take", counting("takes", CbrSource.take))
    monkeypatch.setattr(bcp_module, "assemble_burst",
                        counting("fragments", assemble_burst, len))
    monkeypatch.setattr(BulkBuffer, "pop_up_to",
                        counting("pops", BulkBuffer.pop_up_to))
    config = multi_hop_config(seed=1, sim_time_s=100.0, burst_packets=100)
    result = run_scenario(config)
    packets = result.generated_bits / (config.payload_bytes * 8)
    # A pop cuts at most one buffered run in two.
    bound = counts["takes"] + counts["fragments"] + 2 * counts["pops"]
    assert counts["runs"] <= bound
    assert counts["runs"] * 10 < packets
