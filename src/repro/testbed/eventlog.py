"""Event logging for the prototype experiments (paper Section 4.2).

"All the events (waking up of the emulated IEEE 802.11 radio,
transmission/reception of wakeups, acks, data, etc.) were logged in detail.
At the end of the experiments, these logs were used to calculate energy
consumption and delay."

The testbed follows the same methodology: motes append :class:`LogEntry`
records while the experiment runs, and :mod:`repro.testbed.accounting`
computes all energy numbers *from the log alone* afterwards.
"""

from __future__ import annotations

import dataclasses
import typing

# Event type constants.
SENSOR_TX = "sensor_tx"
SENSOR_RX = "sensor_rx"
WIFI_WAKEUP = "wifi_wakeup"
WIFI_SLEEP = "wifi_sleep"
WIFI_TX = "wifi_tx"
WIFI_RX = "wifi_rx"
MSG_GENERATED = "msg_generated"
MSG_DELIVERED = "msg_delivered"


@dataclasses.dataclass(frozen=True)
class LogEntry:
    """One logged event.

    Attributes
    ----------
    time_s:
        Event timestamp (start of the event for timed events).
    mote:
        Which mote logged it ("sender" / "receiver").
    event:
        One of the module's event-type constants.
    duration_s:
        On-air time for tx/rx events (0 for instantaneous events).
    detail:
        Free-form payload (message ids, byte counts...).
    """

    time_s: float
    mote: str
    event: str
    duration_s: float = 0.0
    detail: typing.Any = None


class EventLog:
    """Append-only experiment log."""

    def __init__(self) -> None:
        self.entries: list[LogEntry] = []

    def log(
        self,
        time_s: float,
        mote: str,
        event: str,
        duration_s: float = 0.0,
        detail: typing.Any = None,
    ) -> None:
        """Append one entry."""
        self.entries.append(LogEntry(time_s, mote, event, duration_s, detail))

    def __len__(self) -> int:
        return len(self.entries)
