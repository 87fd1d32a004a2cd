"""The sensor-radio MAC: unslotted CSMA/CA without RTS/CTS.

Section 4.1: "For the sensor radio, we chose a simpler MAC layer that
comply[s] with MAC protocols for sensor platforms (e.g., no RTS/CTS)."
This is the :class:`~repro.mac.base.ContentionMac` engine with
CC2420/TinyOS-style timing (:func:`repro.mac.timing.sensor_csma_params`).
"""

from __future__ import annotations

import typing

from repro.mac.base import ContentionMac
from repro.mac.timing import MacParams, sensor_csma_params
from repro.radio.radio import RadioPort

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.simulator import Simulator


#: The default parameter set, built once: :class:`MacParams` is a frozen
#: dataclass, so every MAC in a fleet shares this flyweight instead of
#: constructing an identical copy per node.
_DEFAULT_PARAMS = sensor_csma_params()


class SensorCsmaMac(ContentionMac):
    """CSMA/CA MAC for the low-power radio."""

    def __init__(
        self,
        sim: "Simulator",
        radio: RadioPort,
        params: MacParams | None = None,
        name: str | None = None,
    ):
        super().__init__(sim, radio, params or _DEFAULT_PARAMS, name=name)
