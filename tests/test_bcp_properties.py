"""Property-based tests of BCP end-to-end invariants.

On an ideal two-node link, whatever the traffic pattern and threshold:

* **conservation** — every submitted packet is exactly one of delivered /
  still buffered / dropped-at-buffer; nothing is created or duplicated;
* **ordering** — per-flow delivery preserves generation order (FIFO
  buffers + in-order bursts);
* **threshold** — no handshake starts while the buffer is below the
  threshold.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.medium import Medium
from repro.core.bcp import BcpAgent
from repro.core.config import BcpConfig
from repro.energy.meter import MeterBank
from repro.energy.radio_specs import LUCENT_11, MICAZ
from repro.mac.csma import SensorCsmaMac
from repro.mac.dcf import DcfMac
from repro.net.routing import RoutingTable
from repro.radio.radio import HighPowerRadio, LowPowerRadio
from repro.sim import Simulator
from repro.topology import line_layout

from tests.runs import single, unpack


def build_pair(threshold_packets, capacity_packets, seed):
    sim = Simulator(seed=seed)
    layout = line_layout(2, 40.0)
    low_medium = Medium(sim, layout, "low")
    high_medium = Medium(sim, layout, "high")
    bank = MeterBank(2)
    meters = {i: bank.meter(i) for i in (0, 1)}
    low = {
        i: LowPowerRadio(sim, i, MICAZ, low_medium, meters[i]) for i in (0, 1)
    }
    high = {
        i: HighPowerRadio(sim, i, LUCENT_11, high_medium, meters[i])
        for i in (0, 1)
    }
    low_macs = {i: SensorCsmaMac(sim, low[i]) for i in (0, 1)}
    high_macs = {i: DcfMac(sim, high[i]) for i in (0, 1)}
    table = RoutingTable.from_layout(layout, 40.0)
    config = BcpConfig.for_burst_packets(
        threshold_packets,
        buffer_capacity_bytes=float(capacity_packets * 32),
    )
    delivered = []
    agents = {
        i: BcpAgent(
            sim,
            i,
            config,
            low_mac=low_macs[i],
            high_mac=high_macs[i],
            high_radio=high[i],
            low_routing=table,
            high_routing=table,
            deliver=lambda runs: delivered.extend(unpack(runs)),
        )
        for i in (0, 1)
    }
    return sim, agents, delivered


@settings(max_examples=20, deadline=None)
@given(
    batches=st.lists(st.integers(min_value=1, max_value=12), min_size=1,
                     max_size=8),
    threshold=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_conservation_and_order(batches, threshold, seed):
    capacity = max(threshold, 64)
    sim, agents, delivered = build_pair(threshold, capacity, seed)
    sender = agents[0]
    submitted = []

    def feed(index):
        """Submit one batch; the next follows 0.5 s later."""
        for _ in range(batches[index]):
            packet = single(0, 1, 256, sim.now)
            submitted.append(packet)
            sender.submit(packet)
        if index + 1 < len(batches):
            sim.call_later(0.5, feed, index + 1)

    sim.call_later(0.0, feed, 0)
    sim.run(until=120.0)

    stats = sender.stats
    buffered = int(sender.buffer.bytes_for(1) // 32)
    assert stats.packets_submitted == len(submitted)
    # Conservation: everything is delivered, buffered, dropped, or was
    # lost by the MAC (impossible on this clean link).
    assert stats.packets_lost_mac == 0
    assert len(delivered) + buffered + stats.packets_dropped_buffer == len(
        submitted
    )
    # No duplicates.
    ids = [packet.packet_id for packet in delivered]
    assert len(ids) == len(set(ids))
    # FIFO order per flow.
    submitted_ids = [p.first_id for p in submitted]
    positions = {pid: i for i, pid in enumerate(submitted_ids)}
    assert ids == sorted(ids, key=positions.__getitem__)


@settings(max_examples=15, deadline=None)
@given(
    n_packets=st.integers(min_value=0, max_value=40),
    threshold=st.integers(min_value=2, max_value=20),
)
def test_no_handshake_below_threshold(n_packets, threshold):
    sim, agents, delivered = build_pair(threshold, 1000, seed=1)
    sender = agents[0]
    for _ in range(n_packets):
        sender.submit(single(0, 1, 256, sim.now))
    sim.run(until=30.0)
    if n_packets < threshold:
        assert sender.stats.wakeups_sent == 0
        assert delivered == []
    else:
        assert sender.stats.wakeups_sent >= 1
        assert len(delivered) == n_packets


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_radio_always_off_at_quiescence(seed):
    """Whenever all traffic has drained, both high radios must be off —
    BCP never leaks a radio hold."""
    sim, agents, delivered = build_pair(4, 1000, seed)
    for _ in range(16):
        agents[0].submit(single(0, 1, 256, sim.now))
    sim.run(until=60.0)
    assert len(delivered) == 16
    assert not agents[0].high_radio.is_on
    assert not agents[1].high_radio.is_on
