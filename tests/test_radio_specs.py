"""Table 1 radio characteristics and derived quantities."""

import pytest

from repro.energy.radio_specs import (
    CABLETRON,
    HIGH_POWER_RADIOS,
    LOW_POWER_RADIOS,
    LUCENT_2,
    LUCENT_11,
    MICA,
    MICA2,
    MICAZ,
    TABLE_1,
    RadioSpec,
    get_spec,
)


class TestTable1Values:
    """The constants must match the paper's Table 1 exactly."""

    def test_cabletron(self):
        assert CABLETRON.rate_bps == 2e6
        assert CABLETRON.p_tx_w == pytest.approx(1.400)
        assert CABLETRON.p_rx_w == pytest.approx(1.000)
        assert CABLETRON.p_idle_w == pytest.approx(0.830)
        assert CABLETRON.e_wakeup_j == pytest.approx(1.328e-3)

    def test_lucent_2(self):
        assert LUCENT_2.rate_bps == 2e6
        assert LUCENT_2.p_tx_w == pytest.approx(1.3272)
        assert LUCENT_2.p_rx_w == pytest.approx(0.9669)
        assert LUCENT_2.p_idle_w == pytest.approx(0.8437)
        assert LUCENT_2.e_wakeup_j == pytest.approx(0.6e-3)

    def test_lucent_11(self):
        assert LUCENT_11.rate_bps == 11e6
        assert LUCENT_11.p_tx_w == pytest.approx(1.3461)
        assert LUCENT_11.p_rx_w == pytest.approx(0.9006)
        assert LUCENT_11.p_idle_w == pytest.approx(0.7394)

    def test_mica(self):
        assert MICA.rate_bps == 40e3
        assert MICA.p_tx_w == pytest.approx(0.081)
        assert MICA.p_rx_w == pytest.approx(0.030)
        assert MICA.p_idle_w == pytest.approx(0.030)

    def test_mica2(self):
        assert MICA2.rate_bps == 38.4e3
        assert MICA2.p_tx_w == pytest.approx(0.042)
        assert MICA2.p_rx_w == pytest.approx(0.029)

    def test_micaz(self):
        assert MICAZ.rate_bps == 250e3
        assert MICAZ.p_tx_w == pytest.approx(0.051)
        assert MICAZ.p_rx_w == pytest.approx(0.0591)

    def test_sensor_radios_have_no_wakeup_cost(self):
        for spec in LOW_POWER_RADIOS:
            assert spec.e_wakeup_j == 0.0

    def test_table_has_six_radios(self):
        assert len(TABLE_1) == 6

    def test_kinds(self):
        assert all(spec.kind == "high" for spec in HIGH_POWER_RADIOS)
        assert all(spec.kind == "low" for spec in LOW_POWER_RADIOS)


class TestRangesSection22:
    def test_2mbps_radios_reach_250m(self):
        assert CABLETRON.range_m == 250.0
        assert LUCENT_2.range_m == 250.0

    def test_lucent11_has_sensor_range(self):
        assert LUCENT_11.range_m == MICAZ.range_m == 40.0


class TestDerived:
    def test_packet_sizes_match_section41(self):
        assert MICAZ.payload_bytes == 32
        assert LUCENT_11.payload_bytes == 1024

    def test_packet_bits(self):
        assert MICAZ.packet_bits == (32 + 8) * 8

    def test_link_power(self):
        assert MICAZ.link_power_w == pytest.approx(0.051 + 0.0591)

    def test_airtime(self):
        assert MICAZ.airtime(250e3) == pytest.approx(1.0)

    def test_energy_per_payload_bit_micaz_beats_2mbps_cards(self):
        """The Fig. 1 infeasibility: Micaz per-bit beats Cabletron/Lucent-2."""
        assert MICAZ.energy_per_payload_bit() < CABLETRON.energy_per_payload_bit()
        assert MICAZ.energy_per_payload_bit() < LUCENT_2.energy_per_payload_bit()

    def test_lucent11_beats_micaz_per_bit(self):
        assert LUCENT_11.energy_per_payload_bit() < MICAZ.energy_per_payload_bit()

    def test_replace_creates_modified_copy(self):
        longer = CABLETRON.replace(range_m=290.0)
        assert longer.range_m == 290.0
        assert CABLETRON.range_m == 250.0
        assert longer.p_tx_w == CABLETRON.p_tx_w


class TestValidationAndLookup:
    def test_get_spec_case_insensitive(self):
        assert get_spec("micaz") is MICAZ
        assert get_spec("Lucent (11Mbps)") is LUCENT_11

    def test_get_spec_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown radio"):
            get_spec("WiMax")

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            RadioSpec(name="x", kind="medium", rate_bps=1.0,
                      p_tx_w=1, p_rx_w=1, p_idle_w=1)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            RadioSpec(name="x", kind="low", rate_bps=1.0,
                      p_tx_w=-1, p_rx_w=1, p_idle_w=1)

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            RadioSpec(name="x", kind="low", rate_bps=0.0,
                      p_tx_w=1, p_rx_w=1, p_idle_w=1)
