"""Sink-side measurement: delivery counts, delays, duplicate detection."""

from __future__ import annotations

import typing
from array import array

from repro.net.packets import DataPacket, next_packet_id

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.simulator import Simulator

#: How far past the end of the dense id map an id may land and still grow
#: the map (to at least twice its size) rather than go to the sparse set.
_GROW_SLACK = 4096


class SinkCollector:
    """Records every packet delivered at the sink.

    The collector is the models' delivery callback: :meth:`deliver` for
    one packet, :meth:`deliver_many` for a run of them (a BCP fragment).
    It tracks the goodput numerator (payload bits, duplicates excluded),
    per-packet end-to-end delay (generation → sink, buffering included —
    the paper's delay metric) and per-source tallies.

    Accounting is compact: delays are an ``array('d')`` (exact doubles,
    summed in delivery order), hops a running total, and duplicate
    detection one byte per packet id from the id counter's value at
    construction on — every packet generated after the collector is built
    — with a set for any id outside that range.
    """

    def __init__(self, sim: "Simulator", sink_id: int):
        self.sim = sim
        self.sink_id = sink_id
        self.packets_delivered = 0
        self.bits_delivered = 0
        self.duplicates = 0
        self.delays_s = array("d")
        self.hops_total = 0
        self.per_source: dict[int, int] = {}
        self._id_base = next_packet_id()
        #: ``_seen[id - _id_base]`` is 1 once that id has been delivered.
        self._seen = bytearray()
        self._seen_other: set[int] = set()

    def deliver(self, packet: DataPacket) -> None:
        """Accept ``packet`` at the sink."""
        self.deliver_many((packet,))

    def deliver_many(self, packets: typing.Iterable[DataPacket]) -> None:
        """Accept ``packets`` at the sink, in order.

        Exactly equivalent to :meth:`deliver` per packet, including the
        state left behind when a packet addressed elsewhere raises.
        """
        sink_id = self.sink_id
        now = self.sim.now
        seen = self._seen
        base = self._id_base
        append_delay = self.delays_s.append
        per_source = self.per_source
        for packet in packets:
            if packet.dst != sink_id:
                raise ValueError(
                    f"sink {sink_id} received a packet addressed to {packet.dst}"
                )
            offset = packet.packet_id - base
            if 0 <= offset < len(seen):
                if seen[offset]:
                    self.duplicates += 1
                    continue
                seen[offset] = 1
            elif not self._first_sighting(packet.packet_id):
                self.duplicates += 1
                continue
            self.packets_delivered += 1
            self.bits_delivered += packet.payload_bits
            append_delay(now - packet.created_s)
            self.hops_total += packet.hops
            src = packet.src
            per_source[src] = per_source.get(src, 0) + 1

    def _first_sighting(self, packet_id: int) -> bool:
        """Mark an id outside the dense map as seen; False if it was."""
        base, seen, others = self._id_base, self._seen, self._seen_other
        offset = packet_id - base
        mapped = len(seen)
        if 0 <= offset < 2 * mapped + _GROW_SLACK:
            # Just past the map: grow it, and move over any ids the set
            # took before the map reached them.
            seen.extend(bytes(max(offset + 1, 2 * mapped) - mapped))
            end = base + len(seen)
            for other in [i for i in others if base + mapped <= i < end]:
                others.discard(other)
                seen[other - base] = 1
            first = not seen[offset]
            seen[offset] = 1
            return first
        if packet_id in others:
            return False
        others.add(packet_id)
        return True

    @property
    def mean_delay_s(self) -> float:
        """Average end-to-end delay over delivered packets (0 if none)."""
        return sum(self.delays_s) / len(self.delays_s) if self.delays_s else 0.0

    @property
    def max_delay_s(self) -> float:
        """Worst-case delivered-packet delay (0 if none)."""
        return max(self.delays_s) if self.delays_s else 0.0

    @property
    def mean_hops(self) -> float:
        """Average forwarding hops of delivered packets (0 if none)."""
        if not self.packets_delivered:
            return 0.0
        return self.hops_total / self.packets_delivered
