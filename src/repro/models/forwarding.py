"""Hop-by-hop store-and-forward agent for the single-radio models.

The paper's *Sensor* and *802.11* baselines forward each data packet
immediately over their one radio along the routing tree.  The
:class:`ForwardingAgent` is that network layer: it accepts locally generated
packets, relays received ones, and delivers packets addressed to its node.
(The dual-radio model replaces this agent with
:class:`repro.core.BcpAgent`.)
"""

from __future__ import annotations

import typing

from repro.mac.base import ContentionMac
from repro.mac.frames import Frame, FrameKind
from repro.net.packets import DataPacket
from repro.net.routing import RoutingError, RoutingLike

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.simulator import Simulator


class ForwardingAgent:
    """Immediate per-packet forwarding over a single MAC.

    Parameters
    ----------
    sim / node_id / mac / routing:
        Kernel, owning node, the MAC to transmit with, next-hop table.
    deliver:
        Callback for packets whose final destination is this node.
    """

    def __init__(
        self,
        sim: "Simulator",
        node_id: int,
        mac: ContentionMac,
        routing: RoutingLike,
        deliver: typing.Callable[[DataPacket], None],
    ):
        self.sim = sim
        self.node_id = node_id
        self.mac = mac
        self.routing = routing
        self.deliver = deliver
        self.packets_unroutable = 0
        mac.set_data_handler(self._on_frame)

    @property
    def packets_dropped(self) -> int:
        """Packets the MAC gave up on: retries exhausted, queue full, or
        the node died.  The agent's MAC carries nothing else that can
        drop, so its counters are the tally."""
        mac = self.mac
        return mac.sent_failed + mac.queue_drops + mac.power_down_drops

    def submit(self, packet: DataPacket) -> None:
        """Accept a packet (locally generated or received) for handling."""
        if packet.dst == self.node_id:
            self.deliver(packet)
            return
        try:
            next_hop = self.routing.next_hop(self.node_id, packet.dst)
        except RoutingError:
            self.packets_unroutable += 1
            return
        frame = Frame(
            kind=FrameKind.DATA,
            src=self.node_id,
            dst=next_hop,
            payload_bits=packet.payload_bits,
            header_bits=self.mac.radio.spec.header_bits,
            payload=packet,
            require_ack=True,
        )
        self.mac.send(frame)

    def _on_frame(self, frame: Frame) -> None:
        packet = frame.payload
        if not isinstance(packet, DataPacket):
            return
        packet.hops += 1
        self.submit(packet)
