"""Burst assembly and reassembly (paper Section 3).

Sender side: "The allowed amount of data is assembled into packets for the
high-power radio and forwarded to the corresponding MAC layer."  Receiver
side: "Data messages are received as an assembly of multiple packets from
the MAC layer of the high-power radio and are fragmented into the original
packets by BCP."

The unit of assembly is a :class:`BurstFragment` — one 802.11 frame payload
carrying as many whole sensor packets as fit the frame's payload budget (32
of the paper's 32 B packets per 1024 B frame).  Sensor packets are never
split across fragments; the trailing fragment may be short.  This whole-
packet packing is the source of the per-frame quantization visible in the
prototype's Fig. 11 sawtooth.
"""

from __future__ import annotations

import dataclasses
import functools
import typing

from repro.net.packets import DataPacket


@dataclasses.dataclass
class BurstFragment:
    """One high-power frame's worth of a bulk transfer.

    Attributes
    ----------
    session_id:
        The handshake this burst belongs to.
    origin:
        The bulk sender (used by shortcut learning to recognize its own
        packets being forwarded).
    index / total:
        Position of this fragment in the burst and the burst's fragment
        count (the receiver uses ``total`` to know when it may sleep).
    packets:
        The whole sensor packets carried.
    """

    session_id: int
    origin: int
    index: int
    total: int
    packets: list[DataPacket]

    @functools.cached_property
    def payload_bits(self) -> int:
        """On-air payload size: the sum of the carried packets.

        Computed once: the sender's frame and the receiver's session
        bookkeeping both read it, and ``packets`` never changes.
        """
        return sum(packet.payload_bits for packet in self.packets)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<BurstFragment s{self.session_id} {self.index + 1}/{self.total} "
            f"{len(self.packets)}pkts>"
        )


def assemble_burst(
    packets: typing.Sequence[DataPacket],
    session_id: int,
    origin: int,
    frame_payload_bytes: int,
) -> list[BurstFragment]:
    """Pack ``packets`` into fragments of at most ``frame_payload_bytes``.

    Packets are kept whole and in order.  Raises if any single packet
    exceeds the frame payload (the paper's 32 B packets are far below the
    1024 B frames, but the invariant is enforced for general use).
    """
    if frame_payload_bytes <= 0:
        raise ValueError("frame payload must be positive")
    budget_bits = frame_payload_bytes * 8
    groups: list[list[DataPacket]] = []
    current: list[DataPacket] = []
    used = 0
    for packet in packets:
        if packet.payload_bits > budget_bits:
            raise ValueError(
                f"packet of {packet.payload_bits} bits exceeds the "
                f"{budget_bits}-bit frame payload"
            )
        if used + packet.payload_bits > budget_bits:
            groups.append(current)
            current, used = [], 0
        current.append(packet)
        used += packet.payload_bits
    if current:
        groups.append(current)
    total = len(groups)
    return [
        BurstFragment(
            session_id=session_id,
            origin=origin,
            index=index,
            total=total,
            packets=group,
        )
        for index, group in enumerate(groups)
    ]


def reassemble(fragments: typing.Iterable[BurstFragment]) -> list[DataPacket]:
    """Recover the original packet sequence from (possibly unordered) fragments.

    Missing fragments simply leave gaps — BCP tolerates partial bursts (the
    receiver times out and forwards what arrived).
    """
    ordered = sorted(fragments, key=lambda fragment: fragment.index)
    packets: list[DataPacket] = []
    for fragment in ordered:
        packets.extend(fragment.packets)
    return packets
