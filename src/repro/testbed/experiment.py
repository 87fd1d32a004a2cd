"""The prototype experiment: two motes, one threshold sweep (Figures 11–12).

Setup mirrors Section 4.2: a single sender and a single receiver; BCP's
buffering/handshake/bulk-transfer logic running over the real CC2420 link
and the emulated 802.11 MAC; "each run consists of sending 500 messages";
results average 5 runs per threshold (α·s* may be below 1 — the paper
sweeps ~0.5–5 KB, bounded by the Tmote Sky's RAM).

Both protocols are measured:

* **Dual-radio** — BCP: buffer to the threshold, wake-up handshake over the
  CC2420, burst over the emulated 802.11 radio, radios off in between.
* **Sensor-radio** — the baseline: every message goes immediately over the
  CC2420 (with its MAC-level ACK).

Energy is computed only from the event log (:mod:`~repro.testbed.accounting`),
exactly as the paper did.  The per-packet energy of the dual-radio scheme is
*not monotonic* in the threshold: each extra 1024 B frame needed for a
slightly larger burst adds a header-and-wakeup quantum — the Fig. 11
sawtooth.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.energy.radio_specs import LUCENT_11, RadioSpec
from repro.runner.cache import register_result_type
from repro.stats.summation import ltr_sum
from repro.testbed import eventlog
from repro.testbed.accounting import EnergyBreakdown, account_experiment
from repro.testbed.emulation import (
    TMOTE_CC2420,
    WIFI_INTER_FRAME_S,
    EmulatedWifiMac,
    SensorLink,
)
from repro.testbed.eventlog import EventLog

if typing.TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.runner.executor import SweepRunner

SENDER = "sender"
RECEIVER = "receiver"


@dataclasses.dataclass
class PrototypeConfig:
    """Parameters of one prototype run.

    Attributes
    ----------
    threshold_bytes:
        The α·s* buffering threshold under test.
    n_messages:
        Messages per run (paper: 500).
    message_bytes:
        Application message payload (32 B, as in the simulations).
    message_interval_s:
        Sensing period of the data source.
    control_bytes:
        WAKEUP / WAKEUP-ACK payload size.
    frame_payload_bytes:
        Emulated 802.11 frame payload (1024 B) — the quantization unit
        behind the Fig. 11 sawtooth.
    sensor_spec / wifi_spec:
        The real CC2420 and the emulated 802.11 radio.
    flush_at_end:
        Send any sub-threshold remainder when generation ends, so every
        run delivers all messages (keeps per-packet energy comparable).
    """

    threshold_bytes: float = 2048.0
    n_messages: int = 500
    message_bytes: int = 32
    message_interval_s: float = 0.35
    control_bytes: int = 16
    frame_payload_bytes: int = 1024
    sensor_spec: RadioSpec = TMOTE_CC2420
    wifi_spec: RadioSpec = LUCENT_11
    flush_at_end: bool = True

    def __post_init__(self) -> None:
        if self.threshold_bytes <= 0:
            raise ValueError("threshold must be positive")
        if self.n_messages < 1:
            raise ValueError("need at least one message")
        if self.message_bytes < 1 or self.frame_payload_bytes < self.message_bytes:
            raise ValueError("frame payload must fit at least one message")


@dataclasses.dataclass
class PrototypeResult:
    """Measurements of one run (or the average over runs).

    Energies are per *delivered packet*, the Fig. 11 y-axis.
    """

    threshold_bytes: float
    dual_energy_per_packet_uj: float
    sensor_energy_per_packet_uj: float
    mean_delay_per_packet_ms: float
    messages_delivered: int
    dual_breakdown: EnergyBreakdown
    duration_s: float


def prototype_result_to_dict(result: PrototypeResult) -> dict[str, typing.Any]:
    """Serialize a :class:`PrototypeResult` to plain JSON-encodable data."""
    return dataclasses.asdict(result)


def prototype_result_from_dict(
    data: dict[str, typing.Any]
) -> PrototypeResult:
    """Rebuild a :class:`PrototypeResult`; raises on unknown fields."""
    field_names = {f.name for f in dataclasses.fields(PrototypeResult)}
    unknown = set(data) - field_names
    if unknown:
        raise ValueError(f"unknown PrototypeResult fields: {sorted(unknown)}")
    data = dict(data)
    data["dual_breakdown"] = EnergyBreakdown(**data["dual_breakdown"])
    return PrototypeResult(**data)


# Threshold sweeps run through the same runner/cache machinery as the
# simulation matrix: a PrototypeConfig is a pure dataclass, a run is a
# pure function of it, so cached prototype points are sound.
register_result_type(
    PrototypeResult, prototype_result_to_dict, prototype_result_from_dict
)


def _dual_run(config: PrototypeConfig) -> tuple[EventLog, list[float], int, float]:
    """Simulate one BCP run; returns (log, delays, delivered, duration).

    One sender does one thing at a time, so the run needs no event
    queue: a plain clock ``t`` advances by each step's duration in turn.
    """
    log = EventLog()
    sensor_link = SensorLink(log, config.sensor_spec)
    wifi_tx = EmulatedWifiMac(log, SENDER, config.wifi_spec)
    wifi_rx = EmulatedWifiMac(log, RECEIVER, config.wifi_spec)
    delays: list[float] = []
    delivered = 0
    t = 0.0

    buffered: list[float] = []  # generation timestamps of buffered messages

    def flush_burst() -> None:
        """One BCP session: handshake, burst, sleep."""
        nonlocal delivered, t
        # WAKEUP over the CC2420; the receiver wakes its emulated radio and
        # answers with the WAKEUP-ACK while the radio warms up.
        t += sensor_link.transfer(t, SENDER, RECEIVER, config.control_bytes, "wakeup")
        rx_ready = t + wifi_rx.wake(t)
        t += sensor_link.transfer(t, RECEIVER, SENDER, config.control_bytes, "ack")
        t += wifi_tx.wake(t)
        t = max(t, rx_ready)
        burst_bytes = len(buffered) * config.message_bytes
        n_frames = math.ceil(burst_bytes / config.frame_payload_bytes)
        per_frame = math.ceil(len(buffered) / n_frames)
        index = 0
        for _frame in range(n_frames):
            count = min(per_frame, len(buffered) - index)
            payload = count * config.message_bytes
            t += wifi_tx.transfer_frame(t, wifi_rx, payload, f"burst[{count}]")
            for offset in range(count):
                delays.append(t - buffered[index + offset])
                log.log(t, RECEIVER, eventlog.MSG_DELIVERED)
            index += count
            delivered += count
            if _frame != n_frames - 1:
                t += WIFI_INTER_FRAME_S
        buffered.clear()
        wifi_tx.sleep(t)
        wifi_rx.sleep(t)

    for _message in range(config.n_messages):
        log.log(t, SENDER, eventlog.MSG_GENERATED)
        buffered.append(t)
        if len(buffered) * config.message_bytes >= config.threshold_bytes:
            flush_burst()
        t += config.message_interval_s
    if buffered and config.flush_at_end:
        flush_burst()
    return log, delays, delivered, t


def _sensor_baseline_energy_per_packet_j(config: PrototypeConfig) -> float:
    """Per-message CC2420 energy: data frame + MAC-level ACK, both ends."""
    spec = config.sensor_spec
    data_bits = config.message_bytes * 8 + spec.header_bits
    ack_bits = 11 * 8
    link_power = spec.p_tx_w + spec.p_rx_w
    return link_power * (data_bits + ack_bits) / spec.rate_bps


def run_prototype(config: PrototypeConfig) -> PrototypeResult:
    """Run one threshold point of the prototype experiment."""
    log, delays, delivered, duration = _dual_run(config)
    breakdown = account_experiment(
        log, config.sensor_spec, config.wifi_spec, duration
    )
    if delivered == 0:
        raise RuntimeError(
            "prototype run delivered nothing; threshold exceeds the "
            "whole run's data"
        )
    dual_per_packet = breakdown.total / delivered
    sensor_per_packet = _sensor_baseline_energy_per_packet_j(config)
    mean_delay = ltr_sum(delays) / len(delays)
    return PrototypeResult(
        threshold_bytes=config.threshold_bytes,
        dual_energy_per_packet_uj=dual_per_packet * 1e6,
        sensor_energy_per_packet_uj=sensor_per_packet * 1e6,
        mean_delay_per_packet_ms=mean_delay * 1e3,
        messages_delivered=delivered,
        dual_breakdown=breakdown,
        duration_s=duration,
    )


def sweep_thresholds(
    thresholds_bytes: typing.Sequence[float],
    base_config: PrototypeConfig | None = None,
    runner: "SweepRunner | None" = None,
) -> list[PrototypeResult]:
    """Run the prototype across a threshold sweep (the Fig. 11/12 x-axis).

    Each threshold point is an independent deterministic run, so the sweep
    accepts a :class:`~repro.runner.SweepRunner` to fan points over worker
    processes, serve them from the on-disk result cache (prototype
    measurements cache exactly like simulation results — a warm cache
    recomputes nothing), or execute one shard of a multi-machine sweep.
    The default runner (serial unless ``$REPRO_JOBS`` says otherwise)
    matches in-process execution.
    """
    from repro.runner.executor import SweepRunner

    runner = runner or SweepRunner()
    base = base_config or PrototypeConfig()
    configs = [
        dataclasses.replace(base, threshold_bytes=float(threshold))
        for threshold in thresholds_bytes
    ]
    return runner.map(
        run_prototype,
        configs,
        describe=lambda _i, c: f"prototype threshold={c.threshold_bytes:g}B",
    )


def default_threshold_sweep(
    step_bytes: int = 128, max_bytes: int = 5000
) -> list[float]:
    """The paper's ~0.5–5 KB threshold range at a regular step."""
    return [float(b) for b in range(512, max_bytes + 1, step_bytes)]
