"""Sink-side measurement: delivery counts, delays, duplicate detection.

Packets arrive as runs (:class:`~repro.net.packets.PacketRun`), each
accounted for in bulk: one check and one mark of its id range, one
extension of the delay array.  Only a run partly seen already, or with
ids outside the dense duplicate map, is taken packet by packet.
"""

from __future__ import annotations

import typing
from array import array

from repro.net.packets import PacketRun, next_packet_id

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.simulator import Simulator

#: How far past the end of the dense id map an id may land and still grow
#: the map (to at least twice its size) rather than go to the sparse set.
_GROW_SLACK = 4096


class SinkCollector:
    """Records every packet delivered at the sink.

    The collector's :meth:`deliver_many` is the models' delivery
    callback.  It tracks the goodput numerator (payload bits, duplicates excluded) and
    per-packet end-to-end delay (generation → sink, buffering included —
    the paper's delay metric).

    Accounting is compact: delays are an ``array('d')`` (exact doubles,
    in delivery order), hops a running total, and duplicate detection
    one byte per packet id from the id counter's value at construction
    on — every packet generated after the collector is built — with a set
    for any id outside that range.
    """

    def __init__(self, sim: "Simulator", sink_id: int):
        self.sim = sim
        self.sink_id = sink_id
        self.packets_delivered = 0
        self.bits_delivered = 0
        self.duplicates = 0
        self.delays_s = array("d")
        self.hops_total = 0
        self._id_base = next_packet_id()
        #: ``_seen[id - _id_base]`` is 1 once that id has been delivered.
        self._seen = bytearray()
        self._seen_other: set[int] = set()

    def deliver_many(self, runs: typing.Iterable[PacketRun]) -> None:
        """Accept the packets of ``runs`` at the sink, in order.

        Raises on a run addressed elsewhere, leaving the runs before it
        accepted.
        """
        sink_id = self.sink_id
        now = self.sim.now
        seen = self._seen
        for run in runs:
            if run.dst != sink_id:
                raise ValueError(
                    f"sink {sink_id} received a packet addressed to {run.dst}"
                )
            created = run.created_s
            count = len(created)
            start = run.first_id - self._id_base
            stop = start + count
            if 0 <= start and stop <= len(seen) and seen.find(1, start, stop) < 0:
                seen[start:stop] = b"\x01" * count
                fresh = created
            else:
                fresh = [
                    t
                    for offset, t in enumerate(created)
                    if self._first_sighting(start + offset)
                ]
                self.duplicates += count - len(fresh)
                count = len(fresh)
            self.packets_delivered += count
            self.bits_delivered += count * run.payload_bits
            self.delays_s.extend([now - t for t in fresh])
            self.hops_total += count * run.hops

    def _first_sighting(self, offset: int) -> bool:
        """Mark the id ``_id_base + offset`` as seen; False if it was."""
        seen = self._seen
        mapped = len(seen)
        if 0 <= offset < mapped:
            first = not seen[offset]
            seen[offset] = 1
            return first
        base, others = self._id_base, self._seen_other
        packet_id = base + offset
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
