"""Burst assembly (paper Section 3).

Sender side: "The allowed amount of data is assembled into packets for the
high-power radio and forwarded to the corresponding MAC layer."  Receiver
side: "Data messages are received as an assembly of multiple packets from
the MAC layer of the high-power radio and are fragmented into the original
packets by BCP" — here the receiver takes the fragment's packet runs as
they are.

The unit of assembly is a :class:`BurstFragment` — one 802.11 frame payload
carrying as many whole sensor packets as fit the frame's payload budget (32
of the paper's 32 B packets per 1024 B frame).  Sensor packets are never
split across fragments; the trailing fragment may be short.  This whole-
packet packing is the source of the per-frame quantization visible in the
prototype's Fig. 11 sawtooth.  Assembly cuts packet runs
(:class:`~repro.net.packets.PacketRun`) at the frame budget by
arithmetic, not packet by packet.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.net.packets import PacketRun


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
    runs:
        The whole sensor packets carried, as runs in order.
    packets / payload_bits:
        How many packets the runs hold, and their on-air payload size;
        counted once at assembly for the sender's frame and tallies and
        the receiver's session bookkeeping.
    """

    session_id: int
    origin: int
    index: int
    total: int
    runs: list[PacketRun]
    packets: int
    payload_bits: int


def assemble_burst(
    runs: typing.Sequence[PacketRun],
    session_id: int,
    origin: int,
    frame_payload_bytes: int,
) -> list[BurstFragment]:
    """Pack the packets of ``runs`` into fragments of at most
    ``frame_payload_bytes``.

    Packets are kept whole and in order, filling each fragment before the
    next: a packet goes into the current fragment when it still fits.
    Raises if any single packet exceeds the frame payload (the paper's
    32 B packets are far below the 1024 B frames, but the invariant is
    enforced for general use).
    """
    if frame_payload_bytes <= 0:
        raise ValueError("frame payload must be positive")
    budget_bits = frame_payload_bytes * 8
    # Each group: [runs, packets, bits].
    groups: list[list] = []
    current: list = [[], 0, 0]
    for run in runs:
        bits = run.payload_bits
        if bits > budget_bits:
            raise ValueError(
                f"packet of {bits} bits exceeds the "
                f"{budget_bits}-bit frame payload"
            )
        count = len(run.created_s)
        start = 0
        while start < count:
            fits = (budget_bits - current[2]) // bits
            if not fits:
                groups.append(current)
                current = [[], 0, 0]
                continue
            take = min(fits, count - start)
            current[0].append(run if take == count else run.slice(start, start + take))
            current[1] += take
            current[2] += take * bits
            start += take
    if current[1]:
        groups.append(current)
    total = len(groups)
    return [
        BurstFragment(session_id, origin, index, total, *group)
        for index, group in enumerate(groups)
    ]
