"""The Tmote-Sky link and the emulated 802.11 MAC wrapper (Section 4.2).

The paper's prototype ran on Tmote Sky motes, which have only a CC2420:
"Because the time and energy characteristics of IEEE 802.11 radios have
been well studied in literature, we chose to emulate the high-power radio.
A second MAC interface, which is basically a wrapper around the standard
TinyOS MAC interface, was implemented to make the emulation of the IEEE
802.11 radio transparent to BCP."

* :class:`SensorLink` — the real CC2420 channel between the two motes: a
  clean point-to-point link (the paper deliberately isolates BCP "from
  other external factors (e.g., interference, bad channel conditions)").
* :class:`EmulatedWifiMac` — the wrapper MAC: transfers take the emulated
  radio's airtime; wake-up, transmission and reception events are logged so
  the accountant can charge the emulated radio's published energy numbers.
"""

from __future__ import annotations

import typing

from repro.energy.radio_specs import MICAZ, RadioSpec
from repro.testbed import eventlog
from repro.testbed.eventlog import EventLog

#: The Tmote Sky's CC2420 shares the Micaz radio's Table 1 characteristics.
TMOTE_CC2420: RadioSpec = MICAZ.replace(name="CC2420 (Tmote Sky)")

#: Inter-frame gap between back-to-back emulated 802.11 frames (DIFS plus a
#: minimal backoff; there is no contention on a two-node testbed).
WIFI_INTER_FRAME_S = 3e-4


class SensorLink:
    """Point-to-point CC2420 link between the two motes."""

    def __init__(self, log: EventLog, spec: RadioSpec = TMOTE_CC2420):
        self.log = log
        self.spec = spec

    def transfer(
        self,
        now: float,
        src: str,
        dst: str,
        payload_bytes: int,
        detail: typing.Any = None,
    ) -> float:
        """Send one sensor frame at ``now``; returns its airtime.

        Logs a tx at ``src`` and an rx at ``dst``, both spanning the
        frame's airtime (payload + CC2420 header).
        """
        bits = payload_bytes * 8 + self.spec.header_bits
        duration = bits / self.spec.rate_bps
        self.log.log(now, src, eventlog.SENSOR_TX, duration, detail)
        self.log.log(now, dst, eventlog.SENSOR_RX, duration, detail)
        return duration


class EmulatedWifiMac:
    """Wrapper MAC presenting an 802.11-like interface on one mote.

    Every operation takes the current time and returns how long it
    takes; the caller keeps the clock.

    Parameters
    ----------
    log / mote:
        The shared experiment log, owning mote name.
    spec:
        The emulated high-power radio (its Table 1 characteristics drive
        the post-hoc energy accounting).
    """

    def __init__(self, log: EventLog, mote: str, spec: RadioSpec):
        self.log = log
        self.mote = mote
        self.spec = spec
        self.is_on = False

    def wake(self, now: float) -> float:
        """Emulate switching the 802.11 radio on; returns the wake-up time.

        Logged as a wake-up event; the accountant charges ``e_wakeup_j``.
        """
        self.log.log(now, self.mote, eventlog.WIFI_WAKEUP)
        self.is_on = True
        return self.spec.t_wakeup_s

    def sleep(self, now: float) -> None:
        """Emulate switching the radio off (instantaneous, negligible cost)."""
        self.log.log(now, self.mote, eventlog.WIFI_SLEEP)
        self.is_on = False

    def frame_airtime_s(self, payload_bytes: int) -> float:
        """Airtime of one emulated frame (payload + 802.11 header)."""
        bits = payload_bytes * 8 + self.spec.header_bits
        return bits / self.spec.rate_bps

    def transfer_frame(
        self,
        now: float,
        peer: "EmulatedWifiMac",
        payload_bytes: int,
        detail: typing.Any = None,
    ) -> float:
        """Send one emulated frame to ``peer`` at ``now``; returns its airtime.

        Both ends must be awake; tx is logged here and rx at the peer.
        """
        if not self.is_on or not peer.is_on:
            raise RuntimeError("both emulated radios must be awake to transfer")
        duration = self.frame_airtime_s(payload_bytes)
        self.log.log(now, self.mote, eventlog.WIFI_TX, duration, detail)
        self.log.log(now, peer.mote, eventlog.WIFI_RX, duration, detail)
        return duration
