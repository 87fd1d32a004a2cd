"""MAC-layer frame representation shared by both radio stacks.

A :class:`Frame` is what actually occupies the channel.  Its ``payload`` is
opaque to the MAC — a network packet, a list of packets (BCP bursts), or a
control message — and only ``payload_bits``/``header_bits`` matter for
airtime and energy.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
import typing

_frame_ids = itertools.count(1)


class FrameKind(enum.Enum):
    """What role a frame plays at the MAC layer."""

    DATA = "data"
    ACK = "ack"
    CONTROL = "control"


@dataclasses.dataclass
class Frame:
    """One on-air transmission unit.

    Attributes
    ----------
    kind:
        MAC role of the frame.
    src / dst:
        Node ids: every frame is unicast to ``dst``.
    payload_bits / header_bits:
        Sizes determining airtime; ``total_bits`` is their sum.
    payload:
        Opaque upper-layer content.
    seq:
        MAC sequence number, unique per sender MAC (used for ACK matching
        and duplicate suppression).
    require_ack:
        Whether the sender expects a MAC-level acknowledgment.
    frame_id:
        Globally unique id for tracing.
    """

    kind: FrameKind
    src: int
    dst: int
    payload_bits: int
    header_bits: int
    payload: typing.Any = None
    seq: int = 0
    require_ack: bool = True
    frame_id: int = dataclasses.field(default_factory=lambda: next(_frame_ids))

    def __post_init__(self) -> None:
        if self.payload_bits < 0 or self.header_bits < 0:
            raise ValueError("frame sizes must be non-negative")

    @property
    def total_bits(self) -> int:
        """On-air size: payload plus MAC header."""
        return self.payload_bits + self.header_bits

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Frame #{self.frame_id} {self.kind.value} {self.src}->{self.dst} "
            f"{self.total_bits}b seq={self.seq}>"
        )


_ACK = FrameKind.ACK


def make_ack(data_frame: Frame, ack_bits: int) -> Frame:
    """Build the MAC acknowledgment for ``data_frame``.

    The ACK carries the acknowledged sequence number in ``payload`` and is
    itself never acknowledged.
    """
    seq = data_frame.seq
    # Positional in field order (kind, src, dst, payload_bits,
    # header_bits, payload, seq, require_ack): one ACK per data frame
    # received, and keyword binding costs measurably more per call.
    return Frame(_ACK, data_frame.dst, data_frame.src, 0, ack_bits, seq, seq, False)
