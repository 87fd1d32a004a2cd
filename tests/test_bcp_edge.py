"""BCP edge cases: address-map gating, TTL exhaustion, late/stray acks."""


from repro.core.config import BcpConfig
from repro.core.messages import ControlEnvelope, Wakeup, WakeupAck
from repro.net.addressing import AddressMap

from tests.runs import single, unpack
from tests.test_bcp import DualNet


class TestAddressMapGating:
    def test_peer_without_high_radio_never_handshakes(self):
        """Section 3: BCP must resolve the receiver's high-power address;
        a peer with no high-power interface cannot receive bulk data."""
        net = DualNet()
        addresses = AddressMap()
        addresses.register_node(0, has_high_radio=True)
        addresses.register_node(1, has_high_radio=False)
        net.agents[0].address_map = addresses
        net.inject(0, 4)
        net.sim.run(until=10.0)
        assert net.agents[0].stats.wakeups_sent == 0
        assert net.agents[0].stats.handshakes_failed >= 1
        assert net.delivered == []

    def test_agent_without_address_map_still_works(self):
        net = DualNet()
        net.agents[0].address_map = None
        net.inject(0, 4)
        net.sim.run(until=5.0)
        assert len(net.delivered) == 4


class TestControlPlane:
    def test_ttl_exhaustion_drops_envelope(self):
        net = DualNet(n=3, high_range=100.0)
        # Hand-craft an envelope that arrives at node 1 with ttl=0.
        envelope = ControlEnvelope(
            Wakeup(origin=0, target=2, session_id=999, burst_bytes=128),
            src=0,
            dst=2,
            ttl=0,
        )
        net.agents[1]._forward_control(envelope)
        net.sim.run(until=2.0)
        assert net.agents[2].stats.acks_sent == 0

    def test_stray_ack_ignored(self):
        """An ack for an unknown session must not crash or wake anything."""
        net = DualNet()
        ack = WakeupAck(origin=1, target=0, session_id=424242,
                        allowed_bytes=1024)
        net.agents[0]._handle_wakeup_ack(ack)
        net.sim.run(until=1.0)
        assert not net.high_radios[0].is_on

    def test_ack_for_stale_session_ignored(self):
        net = DualNet()
        net.inject(0, 4)
        net.sim.run(until=5.0)  # session completed
        stale = WakeupAck(origin=1, target=0, session_id=1,
                          allowed_bytes=1024)
        net.agents[0]._handle_wakeup_ack(stale)
        net.sim.run(until=6.0)
        assert not net.high_radios[0].is_on

    @staticmethod
    def deaf_handshake():
        """A sender whose WAKEUPs never arrive: attempt 0 goes out at
        t=0 and times out at 0.2 s, attempt 1 at 0.4 s, then the
        handshake fails."""
        config = BcpConfig.for_burst_packets(
            4, wakeup_timeout_s=0.2, wakeup_retries=1
        )
        net = DualNet(low_loss=0.999, config=config, seed=9)
        net.inject(0, 4)
        net.sim.run(until=0.0)
        sender = net.agents[0]
        (session,) = sender._sender_sessions.values()
        ack = WakeupAck(origin=1, target=0, session_id=session.session_id,
                        allowed_bytes=1024)
        return net, sender, session, ack

    def test_ack_after_the_timeout_won_ignored(self):
        """An ACK that arrives at the instant attempt 0's timeout won,
        before the retry goes out, must not end attempt 1's wait."""
        net, sender, session, ack = self.deaf_handshake()
        # Queued after the timeout at the same instant: it runs between
        # the timeout and the retry it triggers.
        net.sim.call_at(0.2, sender._handle_wakeup_ack, ack)
        net.sim.run(until=0.2)
        assert (session.attempt, session.acked) == (1, None)
        net.sim.run(until=0.5)
        assert sender.stats.wakeups_sent == 2
        assert sender.stats.handshakes_failed == 1
        assert sender.stats.bursts_completed == 0
        assert net.delivered == []

    def test_stale_timeout_during_the_next_attempt_ignored(self):
        """Attempt 0's timeout arriving again during attempt 1 must
        neither end attempt 1's wait nor send an early retry."""
        net, sender, session, _ack = self.deaf_handshake()
        net.sim.call_at(0.3, sender._wakeup_wait_ended, (session, 0, False))
        net.sim.run(until=0.35)
        assert (session.attempt, session.acked) == (1, None)
        assert sender.stats.wakeups_sent == 2
        assert sender.stats.handshakes_failed == 0
        net.sim.run(until=0.5)
        assert sender.stats.handshakes_failed == 1

    def test_non_control_low_frame_ignored(self):
        """Random payloads on the low radio don't confuse BCP."""
        from repro.mac.frames import Frame, FrameKind

        net = DualNet()
        net.agents[0]._on_low_frame(
            Frame(FrameKind.DATA, src=1, dst=0, payload_bits=64,
                  header_bits=64, payload="garbage")
        )
        assert net.agents[0].stats.wakeups_sent == 0


class TestHighFrameEdges:
    def test_non_fragment_high_frame_ignored(self):
        from repro.mac.frames import Frame, FrameKind

        net = DualNet()
        net.agents[1]._on_high_frame(
            Frame(FrameKind.DATA, src=0, dst=1, payload_bits=64,
                  header_bits=64, payload="not-a-fragment")
        )
        assert net.agents[1].stats.packets_received == 0

    def test_unsolicited_fragment_still_forwards_packets(self):
        """Fragments arriving without a session (receiver timed out) still
        deliver their packets — data is never thrown away."""
        from repro.core.fragmentation import BurstFragment
        from repro.mac.frames import Frame, FrameKind

        net = DualNet()
        packet = single(0, 1, 256, 0.0)
        fragment = BurstFragment(session_id=777, origin=0, index=0, total=1,
                                 runs=[packet], packets=1, payload_bits=256)
        net.agents[1]._on_high_frame(
            Frame(FrameKind.DATA, src=0, dst=1,
                  payload_bits=fragment.payload_bits, header_bits=272,
                  payload=fragment)
        )
        assert [p.packet_id for p in net.delivered] == [packet.first_id]
        assert net.delivered == unpack([packet])


class TestMeanHops:
    def test_direct_delivery_zero_hops(self):
        net = DualNet()
        net.inject(1, 1, dst=1)
        assert net.delivered[0].hops == 0
