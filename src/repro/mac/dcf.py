"""The high-power radio MAC: IEEE 802.11b DCF.

Section 4.1: "Channel access and retransmissions in the presence of packet
losses are handled by [the] full IEEE 802.11b MAC layer for the IEEE 802.11
radio."  This is the :class:`~repro.mac.base.ContentionMac` engine with
802.11b constants (:func:`repro.mac.timing.dcf_params`), plus one dual-radio
concern: the underlying radio may be *off* (BCP turns it off between
bursts), in which case sends fail immediately rather than hang — BCP's
handshake is responsible for waking both ends before data flows.
"""

from __future__ import annotations

import typing

from repro.mac.base import ContentionMac
from repro.mac.timing import MacParams, dcf_params
from repro.radio.radio import HighPowerRadio

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.simulator import Simulator


#: The default parameter set, built once: :class:`MacParams` is a frozen
#: dataclass, so every MAC in a fleet shares this flyweight instead of
#: constructing an identical copy per node.
_DEFAULT_PARAMS = dcf_params()


class DcfMac(ContentionMac):
    """802.11 DCF MAC driving a :class:`HighPowerRadio`."""

    radio: HighPowerRadio

    def __init__(
        self,
        sim: "Simulator",
        radio: HighPowerRadio,
        params: MacParams | None = None,
        name: str | None = None,
    ):
        super().__init__(sim, radio, params or _DEFAULT_PARAMS, name=name)

    def _radio_ready(self) -> bool:
        radio = self.radio
        return radio.is_on and not radio._transmitting
