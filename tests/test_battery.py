"""Battery model."""

import pytest

from repro.energy.battery import AA_PAIR_CAPACITY_J, Battery, BatteryDepleted


class TestBattery:
    def test_default_capacity_is_aa_pair(self):
        assert Battery().capacity_j == AA_PAIR_CAPACITY_J

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Battery(0.0)

    def test_drain_reduces_charge(self):
        battery = Battery(100.0)
        battery.drain(30.0)
        assert battery.remaining_j == 70.0
        assert battery.fraction_remaining == pytest.approx(0.7)

    def test_overdrain_raises_and_preserves_state(self):
        battery = Battery(10.0)
        with pytest.raises(BatteryDepleted):
            battery.drain(11.0)
        assert battery.remaining_j == 10.0

    def test_negative_drain_rejected(self):
        with pytest.raises(ValueError):
            Battery(10.0).drain(-1.0)

    def test_exact_drain_depletes(self):
        battery = Battery(10.0)
        battery.drain(10.0)
        assert battery.remaining_j == 0.0

    def test_lifetime_projection(self):
        battery = Battery(86400.0)  # 1 J/s for a day
        assert battery.lifetime_s(1.0) == pytest.approx(86400.0)
        assert battery.lifetime_days(1.0) == pytest.approx(1.0)

    def test_zero_power_lifetime_infinite(self):
        assert Battery(1.0).lifetime_s(0.0) == float("inf")

    def test_dual_radio_lifetime_motivation(self):
        """The paper's pitch: cutting average draw extends deployment life.
        A 4x normalized-energy improvement is 4x lifetime."""
        battery = Battery()
        sensor_life = battery.lifetime_days(4e-3)
        dual_life = battery.lifetime_days(1e-3)
        assert dual_life == pytest.approx(4 * sensor_life)
