"""Network-layer packet types.

A :class:`DataPacket` is the unit the application generates (the paper's
32-byte sensor data packet) and the unit BCP buffers, bundles into 802.11
frames, and reassembles.  Control messages (BCP's WAKEUP / WAKEUP-ACK) are
defined in :mod:`repro.core.messages`; at this layer they are just payloads
with a size.
"""

from __future__ import annotations

import dataclasses
import itertools

_packet_ids = itertools.count(1)


def next_packet_id() -> int:
    """The id the next :class:`DataPacket` will get (nothing is consumed).

    Ids are handed out in increasing order from one process-wide counter,
    so every packet built after this call has an id at least this large.
    """
    # ``count`` has no peek; its repr is ``count(<next value>)``.
    return int(repr(_packet_ids)[len("count(") : -1])


@dataclasses.dataclass(slots=True)
class DataPacket:
    """One application data packet.

    Attributes
    ----------
    src / dst:
        Originating node and final destination (the sink).
    payload_bits:
        Application payload size (the paper's sensor packets carry 32 B).
    created_s:
        Generation timestamp; end-to-end delay is measured against it.
    packet_id:
        Globally unique id (tracing and duplicate detection in tests).
    hops:
        Incremented at every forwarding step (diagnostics).
    """

    src: int
    dst: int
    payload_bits: int
    created_s: float
    packet_id: int = dataclasses.field(default_factory=_packet_ids.__next__)
    hops: int = 0

    def __post_init__(self) -> None:
        if self.payload_bits <= 0:
            raise ValueError("data packets must carry a positive payload")

    @property
    def payload_bytes(self) -> float:
        """Payload size in bytes."""
        return self.payload_bits / 8

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<DataPacket #{self.packet_id} {self.src}->{self.dst} "
            f"{self.payload_bits}b t={self.created_s:.3f}>"
        )
