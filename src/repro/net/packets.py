"""Network-layer packet type.

A :class:`PacketRun` is a run of application data packets (the paper's
32-byte sensor data packets) with consecutive ids that share their
source, destination, size and hop count; a single packet is a run of
length 1.  BCP buffers, bundles into 802.11 frames and delivers runs,
splitting one only at a buffer or frame boundary.  Counts and delays
stay per packet.

Control messages (BCP's WAKEUP / WAKEUP-ACK) are defined in
:mod:`repro.core.messages`; at this layer they are just payloads with a
size.
"""

from __future__ import annotations

import dataclasses

_next_id = 1


def next_packet_id() -> int:
    """The id the next packet will get (nothing is consumed).

    Ids are handed out in increasing order from one process-wide counter,
    so every packet made after this call has an id at least this large.
    """
    return _next_id


@dataclasses.dataclass(slots=True)
class PacketRun:
    """Packets ``first_id .. first_id + len(created_s) - 1``, in order.

    Attributes
    ----------
    src / dst:
        Originating node and final destination (the sink).
    payload_bits:
        Application payload size of each packet (the paper's sensor
        packets carry 32 B).
    first_id:
        The first packet's globally unique id (duplicate detection).
    created_s:
        Each packet's generation time; end-to-end delay is measured
        against it.
    hops:
        Forwarding steps taken, incremented at every hop (diagnostics).
    """

    src: int
    dst: int
    payload_bits: int
    first_id: int
    created_s: list[float]
    hops: int = 0

    @classmethod
    def new(cls, src: int, dst: int, payload_bits: int,
            created_s: list[float]) -> "PacketRun":
        """A run of freshly generated packets, with the next ids."""
        if payload_bits <= 0:
            raise ValueError("data packets must carry a positive payload")
        global _next_id
        first_id = _next_id
        _next_id += len(created_s)
        return cls(src, dst, payload_bits, first_id, created_s)

    def slice(self, start: int, stop: int) -> "PacketRun":
        """The packets ``start .. stop - 1`` of this run, as a new run."""
        return PacketRun(self.src, self.dst, self.payload_bits,
                         self.first_id + start, self.created_s[start:stop],
                         self.hops)
