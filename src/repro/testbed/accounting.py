"""Post-hoc energy accounting from the prototype's event log.

Exactly the paper's methodology (Section 4.2): the experiment only records
*events*; all joules are computed afterwards from the log and the radios'
published characteristics (Table 1):

* sensor tx/rx events cost ``P_tx × duration`` / ``P_rx × duration`` of the
  CC2420;
* emulated 802.11 wake-ups cost ``e_wakeup_j`` each;
* emulated 802.11 tx/rx events cost ``P_tx/P_rx × duration``;
* emulated 802.11 *idle* is the awake time (wake→sleep intervals) not spent
  transmitting or receiving, charged at ``P_idle``.
"""

from __future__ import annotations

import dataclasses

from repro.energy.radio_specs import RadioSpec
from repro.stats.summation import ltr_sum
from repro.testbed import eventlog
from repro.testbed.eventlog import EventLog


@dataclasses.dataclass
class EnergyBreakdown:
    """Joules per category for one mote (or both, when summed)."""

    sensor_tx: float = 0.0
    sensor_rx: float = 0.0
    wifi_wakeup: float = 0.0
    wifi_tx: float = 0.0
    wifi_rx: float = 0.0
    wifi_idle: float = 0.0

    @property
    def total(self) -> float:
        """All categories summed."""
        return (
            self.sensor_tx
            + self.sensor_rx
            + self.wifi_wakeup
            + self.wifi_tx
            + self.wifi_rx
            + self.wifi_idle
        )

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(
            sensor_tx=self.sensor_tx + other.sensor_tx,
            sensor_rx=self.sensor_rx + other.sensor_rx,
            wifi_wakeup=self.wifi_wakeup + other.wifi_wakeup,
            wifi_tx=self.wifi_tx + other.wifi_tx,
            wifi_rx=self.wifi_rx + other.wifi_rx,
            wifi_idle=self.wifi_idle + other.wifi_idle,
        )


def account_mote(
    log: EventLog,
    mote: str,
    sensor_spec: RadioSpec,
    wifi_spec: RadioSpec,
    end_time_s: float,
) -> EnergyBreakdown:
    """Compute one mote's energy from the log.

    ``end_time_s`` closes any wake interval left open at experiment end.
    """
    out = EnergyBreakdown()
    awake_intervals: list[tuple[float, float]] = []
    wake_started: float | None = None
    busy_s = 0.0
    for entry in log.entries:
        if entry.mote != mote:
            continue
        if entry.event == eventlog.SENSOR_TX:
            out.sensor_tx += sensor_spec.p_tx_w * entry.duration_s
        elif entry.event == eventlog.SENSOR_RX:
            out.sensor_rx += sensor_spec.p_rx_w * entry.duration_s
        elif entry.event == eventlog.WIFI_WAKEUP:
            out.wifi_wakeup += wifi_spec.e_wakeup_j
            if wake_started is None:
                wake_started = entry.time_s
        elif entry.event == eventlog.WIFI_SLEEP:
            if wake_started is not None:
                awake_intervals.append((wake_started, entry.time_s))
                wake_started = None
        elif entry.event == eventlog.WIFI_TX:
            out.wifi_tx += wifi_spec.p_tx_w * entry.duration_s
            busy_s += entry.duration_s
        elif entry.event == eventlog.WIFI_RX:
            out.wifi_rx += wifi_spec.p_rx_w * entry.duration_s
            busy_s += entry.duration_s
    if wake_started is not None:
        awake_intervals.append((wake_started, end_time_s))
    awake_s = ltr_sum(end - start for start, end in awake_intervals)
    out.wifi_idle = wifi_spec.p_idle_w * max(0.0, awake_s - busy_s)
    return out


def account_experiment(
    log: EventLog,
    sensor_spec: RadioSpec,
    wifi_spec: RadioSpec,
    end_time_s: float,
) -> EnergyBreakdown:
    """Sum both motes' breakdowns."""
    motes = {entry.mote for entry in log.entries}
    total = EnergyBreakdown()
    for mote in sorted(motes):
        total = total + account_mote(log, mote, sensor_spec, wifi_spec, end_time_s)
    return total
