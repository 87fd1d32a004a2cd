"""BCP protocol behaviour: handshake, bulk transfer, flow control,
timeouts, power management and multi-hop forwarding."""


from repro.channel.medium import LossModel, Medium
from repro.core.bcp import BcpAgent
from repro.core.config import BcpConfig
from repro.core.messages import Wakeup
from repro.energy.meter import MeterBank
from repro.energy.radio_specs import LUCENT_11, MICAZ
from repro.mac.csma import SensorCsmaMac
from repro.mac.dcf import DcfMac
from repro.net.addressing import AddressMap
from repro.net.routing import RoutingTable
from repro.radio.radio import HighPowerRadio, LowPowerRadio
from repro.sim import Simulator
from repro.topology import line_layout

from tests.runs import single, unpack


class DualNet:
    """A line of dual-radio nodes running BCP; node n-1 is the sink."""

    def __init__(
        self,
        n=2,
        config=None,
        seed=6,
        high_range=40.0,
        low_loss=0.0,
        high_loss=0.0,
    ):
        self.sim = Simulator(seed=seed)
        self.layout = line_layout(n, 40.0)
        self.sink = n - 1
        low_loss_model = (
            LossModel(low_loss, self.sim.rng.stream("low.loss"))
            if low_loss
            else None
        )
        high_loss_model = (
            LossModel(high_loss, self.sim.rng.stream("high.loss"))
            if high_loss
            else None
        )
        self.low_medium = Medium(self.sim, self.layout, "low", loss=low_loss_model)
        self.high_medium = Medium(
            self.sim, self.layout, "high", loss=high_loss_model
        )
        high_spec = LUCENT_11.replace(range_m=high_range)
        bank = MeterBank(n)
        self.meters = {i: bank.meter(i) for i in range(n)}
        self.low_radios = {
            i: LowPowerRadio(self.sim, i, MICAZ, self.low_medium, self.meters[i])
            for i in range(n)
        }
        self.high_radios = {
            i: HighPowerRadio(
                self.sim, i, high_spec, self.high_medium, self.meters[i]
            )
            for i in range(n)
        }
        low_macs = {i: SensorCsmaMac(self.sim, self.low_radios[i]) for i in range(n)}
        high_macs = {i: DcfMac(self.sim, self.high_radios[i]) for i in range(n)}
        low_table = RoutingTable.from_layout(self.layout, 40.0)
        high_table = RoutingTable.from_layout(self.layout, high_range)
        addresses = AddressMap()
        for i in range(n):
            addresses.register_node(i)
        self.config = config or BcpConfig.for_burst_packets(4)
        self.delivered = []
        self.agents = {
            i: BcpAgent(
                self.sim,
                i,
                self.config,
                low_mac=low_macs[i],
                high_mac=high_macs[i],
                high_radio=self.high_radios[i],
                low_routing=low_table,
                high_routing=high_table,
                deliver=lambda runs: self.delivered.extend(unpack(runs)),
                address_map=addresses,
            )
            for i in range(n)
        }

    def inject(self, node, count, dst=None, size_bytes=32):
        dst = self.sink if dst is None else dst
        for _ in range(count):
            self.agents[node].submit(
                single(node, dst, size_bytes * 8, self.sim.now)
            )


class TestHandshakeAndTransfer:
    def test_below_threshold_nothing_happens(self):
        net = DualNet()
        net.inject(0, 3)  # threshold is 4 packets
        net.sim.run(until=5.0)
        assert net.delivered == []
        assert net.agents[0].stats.wakeups_sent == 0

    def test_threshold_triggers_wakeup_and_delivery(self):
        net = DualNet()
        net.inject(0, 4)
        net.sim.run(until=5.0)
        assert len(net.delivered) == 4
        assert net.agents[0].stats.wakeups_sent == 1
        assert net.agents[1].stats.acks_sent == 1
        assert net.agents[0].stats.bursts_completed == 1

    def test_data_goes_over_high_radio_only(self):
        net = DualNet()
        net.inject(0, 4)
        net.sim.run(until=5.0)
        # Low medium carried exactly the handshake (wakeup + ack + 2 MAC acks).
        assert net.low_medium.frames_sent == 4
        assert net.high_medium.frames_sent >= 1

    def test_radios_off_after_burst(self):
        net = DualNet()
        net.inject(0, 4)
        net.sim.run(until=5.0)
        assert not net.high_radios[0].is_on
        assert not net.high_radios[1].is_on

    def test_sender_wakes_only_after_ack(self):
        """Section 3: the sender turns its radio on upon the ACK, not
        when it sends the WAKEUP."""
        net = DualNet()
        states = []

        original = net.agents[0]._handle_wakeup_ack

        def spy(ack):
            states.append(net.high_radios[0].is_on)
            original(ack)

        net.agents[0]._handle_wakeup_ack = spy
        net.inject(0, 4)
        net.sim.run(until=5.0)
        assert states == [False]

    def test_delivery_to_self_is_immediate(self):
        net = DualNet()
        net.inject(1, 1, dst=1)
        assert len(net.delivered) == 1

    def test_large_burst_multiple_frames(self):
        config = BcpConfig.for_burst_packets(64)
        net = DualNet(config=config)
        net.inject(0, 64)
        net.sim.run(until=10.0)
        assert len(net.delivered) == 64
        # 64 x 32 B = 2 KB = 2 frames of 1024 B.
        data_frames = net.agents[0].stats.bursts_completed
        assert data_frames == 1
        assert net.high_radios[1].frames_rx >= 2

    def test_burst_carries_everything_buffered(self):
        """Section 3: the node 'tries to empty its buffer' — a single
        handshake moves all 8 packets even though the threshold is 4."""
        net = DualNet()
        net.inject(0, 8)
        net.sim.run(until=10.0)
        assert len(net.delivered) == 8
        assert net.agents[0].stats.wakeups_sent == 1

    def test_data_arriving_mid_handshake_gets_second_burst(self):
        """Packets buffered after the WAKEUP was sent are not part of the
        advertised burst; a follow-up handshake moves them."""
        net = DualNet()
        net.inject(0, 4)
        net.sim.call_later(0.008, lambda: net.inject(0, 4))
        net.sim.run(until=10.0)
        assert len(net.delivered) == 8
        assert net.agents[0].stats.wakeups_sent == 2


class TestFlowControl:
    def test_receiver_clamps_to_free_buffer(self):
        config = BcpConfig.for_burst_packets(
            4, buffer_capacity_bytes=4 * 32.0
        )
        net = DualNet(n=3, config=config)
        # Node 1 already holds 2 packets toward the sink (below threshold).
        net.inject(1, 2)
        net.sim.run(until=0.5)
        # Node 0 wants to push 4 packets; node 1 only has room for 2.
        net.inject(0, 4)
        net.sim.run(until=1.0)
        assert net.agents[1].stats.packets_dropped_buffer == 0

    def test_full_receiver_stays_silent(self):
        config = BcpConfig.for_burst_packets(2, buffer_capacity_bytes=64.0)
        net = DualNet(n=3, config=config)
        net.inject(1, 2)  # fills node 1 completely (threshold met; in session)
        net.inject(0, 2)
        net.sim.run(until=0.2)
        # eventually node 1 drains to the sink and node 0 succeeds
        net.sim.run(until=20.0)
        assert len(net.delivered) == 4

    def test_flow_control_disabled_grants_full_burst(self):
        config = BcpConfig.for_burst_packets(
            4, buffer_capacity_bytes=4 * 32.0, flow_control=False
        )
        net = DualNet(config=config)
        net.inject(0, 4)
        net.sim.run(until=5.0)
        assert len(net.delivered) == 4


class TestRobustness:
    def test_lost_data_receiver_times_out(self):
        net = DualNet(high_loss=0.999, seed=8)
        net.inject(0, 4)
        net.sim.run(until=30.0)
        assert net.agents[1].stats.receiver_timeouts >= 1
        assert not net.high_radios[1].is_on

    def test_unreachable_receiver_handshake_fails(self):
        config = BcpConfig.for_burst_packets(4, wakeup_timeout_s=0.2)
        net = DualNet(low_loss=0.999, config=config, seed=9)
        net.inject(0, 4)
        net.sim.run(until=10.0)
        assert net.agents[0].stats.handshakes_failed >= 1
        assert net.agents[0].stats.wakeup_retries >= config.wakeup_retries
        assert not net.high_radios[0].is_on

    def test_failed_handshake_retries_after_backoff(self):
        config = BcpConfig.for_burst_packets(
            4, wakeup_timeout_s=0.1, handshake_backoff_s=0.5
        )
        net = DualNet(config=config, seed=10)
        # Make the low channel lossless but the receiver deaf by turning
        # 100% loss on after injection... simplest: lossy low channel then
        # heal it by swapping the loss model.
        net.low_medium.loss = LossModel(0.999, net.sim.rng.stream("tmp"))
        net.inject(0, 4)
        net.sim.run(until=3.0)
        assert net.agents[0].stats.handshakes_failed >= 1
        net.low_medium.loss = LossModel(0.0)
        net.sim.run(until=10.0)
        assert len(net.delivered) == 4

    def test_duplicate_wakeup_reacked(self):
        net = DualNet()
        net.inject(0, 4)
        net.sim.run(until=5.0)
        receiver = net.agents[1]
        acks_before = receiver.stats.acks_sent
        # Replay the wakeup of a new session twice (lost-ACK scenario).
        wakeup = Wakeup(origin=0, target=1, session_id=12345, burst_bytes=128)
        receiver._handle_wakeup(wakeup)
        receiver._handle_wakeup(wakeup)
        assert receiver.stats.acks_sent == acks_before + 2
        net.sim.run(until=10.0)  # let the idle timeout clean up


class TestMultihop:
    def test_wakeup_relayed_over_low_network(self):
        """High radio reaches node 2 directly; the WAKEUP cannot."""
        net = DualNet(n=3, high_range=100.0)
        net.inject(0, 4)
        net.sim.run(until=5.0)
        assert len(net.delivered) == 4
        assert net.agents[1].stats.control_forwarded >= 1
        # Data made a single high-power hop (no re-buffering at node 1).
        assert net.agents[1].stats.packets_received == 0

    def test_store_and_forward_when_ranges_equal(self):
        """With sensor-equal wifi range, bulk data re-buffers hop by hop."""
        net = DualNet(n=3, high_range=40.0)
        net.inject(0, 4)
        net.sim.run(until=10.0)
        assert len(net.delivered) == 4
        assert net.agents[1].stats.packets_received == 4
        assert net.agents[1].stats.wakeups_sent == 1

    def test_hop_counter_incremented(self):
        net = DualNet(n=3, high_range=40.0)
        net.inject(0, 4)
        net.sim.run(until=10.0)
        assert all(packet.hops == 2 for packet in net.delivered)


class TestBufferOverflow:
    def test_drops_counted_when_buffer_full(self):
        config = BcpConfig.for_burst_packets(
            2, buffer_capacity_bytes=64.0, wakeup_timeout_s=0.2
        )
        net = DualNet(config=config, low_loss=0.999, seed=12)
        net.inject(0, 5)
        assert net.agents[0].stats.packets_dropped_buffer == 3
