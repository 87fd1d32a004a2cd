"""Radio ports: state machines, energy accounting asymmetry, wake/sleep."""

import pytest

from repro.channel.medium import Medium
from repro.energy.meter import MeterBank
from repro.energy.radio_specs import LUCENT_11, MICAZ
from repro.mac.frames import Frame, FrameKind
from repro.radio.radio import HighPowerRadio, LowPowerRadio
from repro.radio.states import RadioState
from repro.sim import SimulationError, Simulator
from repro.topology import line_layout


def frame(src, dst, payload_bits=256, header_bits=64):
    return Frame(
        kind=FrameKind.DATA,
        src=src,
        dst=dst,
        payload_bits=payload_bits,
        header_bits=header_bits,
        require_ack=False,
    )


@pytest.fixture
def pair():
    sim = Simulator(seed=4)
    layout = line_layout(2, 40.0)
    return sim, layout


class TestLowPowerRadio:
    def test_always_listening_when_idle(self, pair):
        sim, layout = pair
        medium = Medium(sim, layout, "m")
        radio = LowPowerRadio(sim, 0, MICAZ, medium, MeterBank(2).meter(0))
        assert radio.is_listening

    def test_not_listening_while_transmitting(self, pair):
        sim, layout = pair
        medium = Medium(sim, layout, "m")
        bank = MeterBank(2)
        radio = LowPowerRadio(sim, 0, MICAZ, medium, bank.meter(0))
        LowPowerRadio(sim, 1, MICAZ, medium, bank.meter(1))
        radio.transmit(frame(0, 1, payload_bits=8192))
        states = []

        sim.call_later(1e-4, lambda: states.append(radio.is_listening))
        sim.run()
        assert states == [False]
        assert radio.is_listening  # back after tx

    def test_tx_energy_charged(self, pair):
        sim, layout = pair
        medium = Medium(sim, layout, "m")
        bank = MeterBank(2)
        meter = bank.meter(0)
        radio = LowPowerRadio(sim, 0, MICAZ, medium, meter)
        LowPowerRadio(sim, 1, MICAZ, medium, bank.meter(1))
        radio.transmit(frame(0, 1))
        sim.run()
        duration = 320 / MICAZ.rate_bps
        assert meter.by_category()["tx"] == pytest.approx(
            MICAZ.p_tx_w * duration
        )

    def test_no_idle_energy_ever(self, pair):
        """Low radio idling is a base cost, never charged (Section 2.1)."""
        sim, layout = pair
        medium = Medium(sim, layout, "m")
        meter = MeterBank(2).meter(0)
        LowPowerRadio(sim, 0, MICAZ, medium, meter)
        sim.call_later(100.0, lambda: None)
        sim.run()
        assert meter.total() == 0.0

    def test_transmit_while_busy_raises(self, pair):
        sim, layout = pair
        medium = Medium(sim, layout, "m")
        bank = MeterBank(2)
        radio = LowPowerRadio(sim, 0, MICAZ, medium, bank.meter(0))
        LowPowerRadio(sim, 1, MICAZ, medium, bank.meter(1))
        radio.transmit(frame(0, 1, payload_bits=8192))
        with pytest.raises(SimulationError, match="busy"):
            radio.transmit(frame(0, 1))


class TestHighPowerRadio:
    def make(self, sim, layout, node=0):
        """A radio on this sim's shared medium, metered into its bank
        (read the charges through ``radio.meter``)."""
        medium = getattr(self, "_medium", None)
        if medium is None or medium.sim is not sim:
            medium = Medium(sim, layout, "m")
            self._medium = medium
            self._bank = MeterBank(len(layout))
        return HighPowerRadio(
            sim, node, LUCENT_11, medium, self._bank.meter(node)
        )

    def test_starts_off(self, pair):
        sim, layout = pair
        radio = self.make(sim, layout)
        assert radio.state == RadioState.OFF
        assert not radio.is_listening

    def test_wake_charges_and_takes_latency(self, pair):
        sim, layout = pair
        radio = self.make(sim, layout)
        meter = radio.meter
        ready = []
        radio.wake(lambda: ready.append(sim.now))
        sim.run()
        assert ready == [pytest.approx(LUCENT_11.t_wakeup_s)]
        assert radio.state == RadioState.IDLE
        assert meter.by_category()["wakeup"] == pytest.approx(
            LUCENT_11.e_wakeup_j
        )

    def test_wake_when_on_is_free(self, pair):
        sim, layout = pair
        radio = self.make(sim, layout)
        meter = radio.meter
        radio.wake()
        sim.run()
        before = meter.by_category()["wakeup"]
        ready = []
        radio.wake(lambda: ready.append(sim.now))
        sim.run()
        assert ready == [sim.now]
        assert meter.by_category()["wakeup"] == before
        assert radio.wakeup_count == 1

    def test_concurrent_wakes_share_transition(self, pair):
        sim, layout = pair
        radio = self.make(sim, layout)
        ready = []
        radio.wake(lambda: ready.append("first"))
        radio.wake(lambda: ready.append("second"))
        sim.run()
        assert ready == ["first", "second"]
        assert radio.wakeup_count == 1

    def test_idle_power_integrated(self, pair):
        sim, layout = pair
        radio = self.make(sim, layout)
        meter = radio.meter
        radio.wake()
        sim.run()
        sim.call_later(2.0, lambda: None)
        sim.run()
        radio.sleep()
        assert meter.by_category()["idle"] == pytest.approx(
            2.0 * LUCENT_11.p_idle_w
        )

    def test_off_costs_nothing(self, pair):
        sim, layout = pair
        radio = self.make(sim, layout)
        meter = radio.meter
        sim.call_later(100.0, lambda: None)
        sim.run()
        radio.flush_accounting()
        assert meter.total() == 0.0

    def test_transmit_requires_on(self, pair):
        sim, layout = pair
        radio = self.make(sim, layout)
        self.make(sim, layout, node=1)
        with pytest.raises(SimulationError, match="cannot transmit"):
            radio.transmit(frame(0, 1))

    def test_tx_power_during_transmission(self, pair):
        sim, layout = pair
        radio = self.make(sim, layout)
        meter = radio.meter
        self.make(sim, layout, node=1)
        radio.wake()
        sim.run()
        sent = frame(0, 1, payload_bits=8192, header_bits=272)
        radio.transmit(sent)
        sim.run()
        radio.sleep()
        duration = 8464 / LUCENT_11.rate_bps
        assert meter.by_category()["tx"] == pytest.approx(
            LUCENT_11.p_tx_w * duration
        )

    def test_rx_increment_above_idle(self, pair):
        sim, layout = pair
        radio0 = self.make(sim, layout, node=0)
        radio1 = self.make(sim, layout, node=1)
        meter1 = radio1.meter
        radio0.wake()
        radio1.wake()
        sim.run()
        radio0.transmit(frame(0, 1))
        sim.run()
        radio1.sleep()
        duration = 320 / LUCENT_11.rate_bps
        expected = (LUCENT_11.p_rx_w - LUCENT_11.p_idle_w) * duration
        assert meter1.by_category()["rx"] == pytest.approx(expected)

    def test_sleep_while_transmitting_raises(self, pair):
        sim, layout = pair
        radio = self.make(sim, layout)
        self.make(sim, layout, node=1)
        radio.wake()
        sim.run()
        radio.transmit(frame(0, 1, payload_bits=80_000))
        errors = []

        def try_sleep():
            try:
                radio.sleep()
            except SimulationError as exc:
                errors.append(str(exc))

        sim.call_later(1e-4, try_sleep)
        sim.run()
        assert errors and "transmitting" in errors[0]

    def test_sleep_mid_wake_drops_waiters(self, pair):
        sim, layout = pair
        radio = self.make(sim, layout)
        ready = []
        radio.wake(lambda: ready.append(sim.now))
        radio.sleep()
        sim.run()
        assert ready == []
        assert radio.state == RadioState.OFF
        assert sim.events_processed == 1  # the wake's own timer, a no-op

    def test_off_radio_receives_nothing(self, pair):
        sim, layout = pair
        radio0 = self.make(sim, layout, node=0)
        radio1 = self.make(sim, layout, node=1)
        got = []
        radio1.set_receiver(got.append)
        radio0.wake()
        sim.run()
        radio0.transmit(frame(0, 1))
        sim.run()
        assert got == []
