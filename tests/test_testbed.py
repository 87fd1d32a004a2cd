"""Prototype testbed: event logging, emulation, accounting, experiments."""


import pytest

from repro.energy.radio_specs import LUCENT_11
from repro.testbed import (
    TMOTE_CC2420,
    EmulatedWifiMac,
    EventLog,
    PrototypeConfig,
    SensorLink,
    account_experiment,
    account_mote,
    default_threshold_sweep,
    run_prototype,
    sweep_thresholds,
)
from repro.testbed import eventlog


def _of_type(log, event, mote=None):
    """The entries of one event type (optionally one mote's)."""
    return [
        entry
        for entry in log.entries
        if entry.event == event and (mote is None or entry.mote == mote)
    ]


class TestEventLog:
    def test_append_and_filter(self):
        log = EventLog()
        log.log(0.0, "sender", eventlog.SENSOR_TX, 0.001)
        log.log(0.0, "receiver", eventlog.SENSOR_RX, 0.001)
        log.log(1.0, "sender", eventlog.WIFI_WAKEUP)
        assert len(log) == 3
        assert [(entry.mote, entry.event) for entry in log.entries] == [
            ("sender", eventlog.SENSOR_TX),
            ("receiver", eventlog.SENSOR_RX),
            ("sender", eventlog.WIFI_WAKEUP),
        ]


class TestEmulation:
    def test_sensor_link_logs_both_ends(self):
        log = EventLog()
        link = SensorLink(log)
        duration = link.transfer(2.0, "sender", "receiver", 16)
        expected = (16 * 8 + TMOTE_CC2420.header_bits) / TMOTE_CC2420.rate_bps
        assert duration == pytest.approx(expected)
        (tx,) = _of_type(log, eventlog.SENSOR_TX, "sender")
        (rx,) = _of_type(log, eventlog.SENSOR_RX, "receiver")
        assert tx.time_s == rx.time_s == 2.0
        assert tx.duration_s == rx.duration_s == duration

    def test_wifi_transfer_requires_awake(self):
        log = EventLog()
        a = EmulatedWifiMac(log, "sender", LUCENT_11)
        b = EmulatedWifiMac(log, "receiver", LUCENT_11)
        with pytest.raises(RuntimeError):
            a.transfer_frame(0.0, b, 1024)
        assert a.wake(0.0) == LUCENT_11.t_wakeup_s
        b.wake(0.0)
        duration = a.transfer_frame(1.0, b, 1024)
        assert duration == a.frame_airtime_s(1024)
        assert _of_type(log, eventlog.WIFI_TX, "sender")
        assert _of_type(log, eventlog.WIFI_RX, "receiver")

    def test_wake_logs_event(self):
        log = EventLog()
        mac = EmulatedWifiMac(log, "sender", LUCENT_11)
        mac.wake(0.0)
        assert len(_of_type(log, eventlog.WIFI_WAKEUP)) == 1


class TestAccounting:
    def test_sensor_event_energy(self):
        log = EventLog()
        log.log(0.0, "sender", eventlog.SENSOR_TX, 0.002)
        log.log(0.0, "receiver", eventlog.SENSOR_RX, 0.002)
        sender = account_mote(log, "sender", TMOTE_CC2420, LUCENT_11, 1.0)
        receiver = account_mote(log, "receiver", TMOTE_CC2420, LUCENT_11, 1.0)
        assert sender.sensor_tx == pytest.approx(TMOTE_CC2420.p_tx_w * 0.002)
        assert receiver.sensor_rx == pytest.approx(TMOTE_CC2420.p_rx_w * 0.002)

    def test_wifi_idle_is_awake_minus_busy(self):
        log = EventLog()
        log.log(0.0, "m", eventlog.WIFI_WAKEUP)
        log.log(0.1, "m", eventlog.WIFI_TX, 0.2)
        log.log(1.0, "m", eventlog.WIFI_SLEEP)
        out = account_mote(log, "m", TMOTE_CC2420, LUCENT_11, 2.0)
        assert out.wifi_wakeup == pytest.approx(LUCENT_11.e_wakeup_j)
        assert out.wifi_tx == pytest.approx(LUCENT_11.p_tx_w * 0.2)
        assert out.wifi_idle == pytest.approx(LUCENT_11.p_idle_w * 0.8)

    def test_open_wake_interval_closed_at_end(self):
        log = EventLog()
        log.log(0.0, "m", eventlog.WIFI_WAKEUP)
        out = account_mote(log, "m", TMOTE_CC2420, LUCENT_11, 3.0)
        assert out.wifi_idle == pytest.approx(LUCENT_11.p_idle_w * 3.0)

    def test_experiment_sums_motes(self):
        log = EventLog()
        log.log(0.0, "a", eventlog.SENSOR_TX, 0.001)
        log.log(0.0, "b", eventlog.SENSOR_RX, 0.001)
        total = account_experiment(log, TMOTE_CC2420, LUCENT_11, 1.0)
        assert total.total == pytest.approx(
            TMOTE_CC2420.p_tx_w * 0.001 + TMOTE_CC2420.p_rx_w * 0.001
        )

    def test_breakdown_addition(self):
        from repro.testbed.accounting import EnergyBreakdown

        a = EnergyBreakdown(sensor_tx=1.0, wifi_idle=2.0)
        b = EnergyBreakdown(sensor_tx=0.5, wifi_tx=1.5)
        combined = a + b
        assert combined.sensor_tx == 1.5
        assert combined.total == pytest.approx(5.0)


class TestPrototypeExperiment:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            PrototypeConfig(threshold_bytes=0)
        with pytest.raises(ValueError):
            PrototypeConfig(n_messages=0)
        with pytest.raises(ValueError):
            PrototypeConfig(message_bytes=64, frame_payload_bytes=32)

    def test_all_messages_delivered_with_flush(self):
        result = run_prototype(PrototypeConfig(threshold_bytes=1024,
                                               n_messages=100))
        assert result.messages_delivered == 100

    def test_paper_claim_crossover_near_1kb(self):
        """Fig. 11: s* occurs around 1 KB on the prototype."""
        low = run_prototype(PrototypeConfig(threshold_bytes=512))
        high = run_prototype(PrototypeConfig(threshold_bytes=2048))
        assert low.dual_energy_per_packet_uj > low.sensor_energy_per_packet_uj
        assert high.dual_energy_per_packet_uj < high.sensor_energy_per_packet_uj

    def test_paper_claim_diminishing_returns(self):
        """Fig. 11: the drop flattens beyond a few KB."""
        r1 = run_prototype(PrototypeConfig(threshold_bytes=512))
        r2 = run_prototype(PrototypeConfig(threshold_bytes=2048))
        r3 = run_prototype(PrototypeConfig(threshold_bytes=4096))
        drop_early = r1.dual_energy_per_packet_uj - r2.dual_energy_per_packet_uj
        drop_late = r2.dual_energy_per_packet_uj - r3.dual_energy_per_packet_uj
        assert drop_early > drop_late > -1e-9

    def test_paper_claim_sawtooth_nonmonotonic(self):
        """Fig. 11: energy per packet is NOT monotone in the threshold —
        crossing a 1024 B frame boundary adds a frame's overhead."""
        results = sweep_thresholds(list(range(512, 4097, 32)))
        values = [r.dual_energy_per_packet_uj for r in results]
        rises = sum(1 for a, b in zip(values, values[1:]) if b > a + 1e-9)
        assert rises > 0

    def test_sensor_baseline_flat(self):
        results = sweep_thresholds([512, 1024, 4096])
        sensor = {r.sensor_energy_per_packet_uj for r in results}
        assert len(sensor) == 1

    def test_delay_grows_with_threshold(self):
        """Fig. 12: buffering delay is the price of energy savings."""
        results = sweep_thresholds([512, 1024, 2048, 4096])
        delays = [r.mean_delay_per_packet_ms for r in results]
        assert delays == sorted(delays)

    def test_delay_scale_matches_paper(self):
        """Fig. 12's x-axis reaches ~25 s at the 5 KB threshold."""
        result = run_prototype(PrototypeConfig(threshold_bytes=4992))
        assert 5_000 < result.mean_delay_per_packet_ms < 60_000

    def test_energy_computed_from_log_only(self):
        """The result's breakdown must equal re-accounting its log — i.e.
        the experiment carries no hidden energy state."""
        config = PrototypeConfig(threshold_bytes=1024, n_messages=50)
        result = run_prototype(config)
        assert result.dual_breakdown.total > 0
        assert result.dual_energy_per_packet_uj == pytest.approx(
            result.dual_breakdown.total / result.messages_delivered * 1e6
        )

    def test_default_sweep_range(self):
        sweep = default_threshold_sweep()
        assert sweep[0] == 512
        assert sweep[-1] <= 5000
        assert all(b - a == 128 for a, b in zip(sweep, sweep[1:]))

    def test_deterministic(self):
        config = PrototypeConfig(threshold_bytes=2048, n_messages=100)
        a = run_prototype(config)
        b = run_prototype(config)
        assert a.dual_energy_per_packet_uj == b.dual_energy_per_packet_uj
        assert a.mean_delay_per_packet_ms == b.mean_delay_per_packet_ms
