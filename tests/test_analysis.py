"""Analysis sweeps behind Figures 1-4."""

import decimal
import math

import pytest

from repro.analysis import (
    Series,
    burst_savings_fraction,
    crossover_table,
    fig1_energy_vs_size,
    fig2_breakeven_vs_idle,
    fig3_breakeven_vs_forward_progress,
    fig4_savings_vs_burst,
    knee_burst_size,
)
from repro.analysis.feasibility import _lin_space, _log_space
from repro.energy.radio_specs import CABLETRON, LUCENT_2, LUCENT_11


class TestSeries:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Series("x", (1.0, 2.0), (1.0,))


#: (start, stop, points): the Fig. 1 and Fig. 2 defaults, then edge cases.
LOG_SPACES = (
    (0.1, 10.0, 50),
    (1e-3, 10.0, 50),
    (0.1, 10.0, 2),
    (0.5, 7.3, 33),
    (1e-6, 1e6, 1001),
)


def _exact_power_of_ten(exponent):
    """``10 ** exponent``, correctly rounded to a float."""
    with decimal.localcontext(decimal.Context(prec=60)):
        return float(decimal.Decimal(10) ** decimal.Decimal(exponent))


class TestLogSpace:
    @pytest.mark.parametrize("start, stop, points", LOG_SPACES)
    def test_endpoints_exact(self, start, stop, points):
        values = _log_space(start, stop, points)
        assert len(values) == points
        assert values[0] == 10.0 ** math.log10(start)
        assert values[-1] == 10.0 ** math.log10(stop)

    @pytest.mark.parametrize("start, stop, points", LOG_SPACES)
    def test_values_are_correctly_rounded_powers(self, start, stop, points):
        exponents = _lin_space(math.log10(start), math.log10(stop), points)
        assert _log_space(start, stop, points) == [
            _exact_power_of_ten(e) for e in exponents
        ]

    @pytest.mark.parametrize("start, stop, points", LOG_SPACES)
    def test_matches_numpy(self, start, stop, points):
        numpy = pytest.importorskip("numpy")
        lo, hi = numpy.log10(start), numpy.log10(stop)
        # The exponents are numpy.linspace's, bit for bit.
        assert _lin_space(float(lo), float(hi), points) == [
            float(v) for v in numpy.linspace(lo, hi, points)
        ]
        # numpy's vectorized power may miss the correctly rounded value
        # (which _log_space returns) by one ulp on some CPUs.
        for ours, theirs in zip(
            _log_space(start, stop, points), numpy.logspace(lo, hi, points)
        ):
            assert abs(ours - float(theirs)) <= math.ulp(float(theirs))


class TestFig1:
    def test_six_curves(self):
        series = fig1_energy_vs_size()
        labels = [s.label for s in series]
        assert labels == [
            "Mica",
            "Mica2",
            "Micaz",
            "Cabletron-Micaz",
            "Lucent (2Mbps)-Micaz",
            "Lucent (11Mbps)-Micaz",
        ]

    def test_energies_increase_with_size(self):
        for series in fig1_energy_vs_size():
            assert list(series.y) == sorted(series.y)

    def test_lucent11_crosses_micaz(self):
        """The headline crossover: dual beats Micaz at large sizes only."""
        series = {s.label: s for s in fig1_energy_vs_size()}
        micaz = series["Micaz"]
        dual = series["Lucent (11Mbps)-Micaz"]
        assert dual.y[0] > micaz.y[0]  # at 0.1 KB the fixed cost dominates
        assert dual.y[-1] < micaz.y[-1]  # at 10 KB the dual radio wins

    def test_crossover_table(self):
        table = crossover_table()
        assert table["Cabletron-Micaz"] == float("inf")
        assert table["Lucent (2Mbps)-Micaz"] == float("inf")
        assert 0 < table["Lucent (11Mbps)-Micaz"] < 1.0  # below 1 KB


class TestFig2:
    def test_seven_pairings(self):
        assert len(fig2_breakeven_vs_idle()) == 7

    def test_breakeven_grows_with_idle(self):
        for series in fig2_breakeven_vs_idle():
            finite = [y for y in series.y if y != float("inf")]
            assert finite == sorted(finite)

    def test_paper_range_at_1s(self):
        """Fig. 2: tens to hundreds of KB at ~1 s of idling."""
        for series in fig2_breakeven_vs_idle(idle_times_s=[1.0]):
            value = series.y[0]
            assert 10 < value < 1000


class TestFig3:
    def test_six_pairings(self):
        assert len(fig3_breakeven_vs_forward_progress()) == 6

    def test_monotone_decreasing(self):
        for series in fig3_breakeven_vs_forward_progress():
            finite = [y for y in series.y if y != float("inf")]
            assert finite == sorted(finite, reverse=True)

    def test_micaz_pairs_become_feasible_with_hops(self):
        """Fig. 3's key point: Cabletron/Lucent-2 + Micaz need hops."""
        for series in fig3_breakeven_vs_forward_progress():
            if series.label.endswith("Micaz"):
                assert series.y[0] == float("inf")
                assert series.y[-1] != float("inf")

    def test_mica_pairs_always_feasible(self):
        for series in fig3_breakeven_vs_forward_progress():
            if series.label.endswith("-Mica"):
                assert all(y != float("inf") for y in series.y)


class TestFig4:
    def test_six_curves_with_idle_variants(self):
        labels = [s.label for s in fig4_savings_vs_burst()]
        assert "Cabletron" in labels
        assert "Cabletron-Idle" in labels
        assert len(labels) == 6

    def test_savings_zero_at_one_packet(self):
        for spec in (CABLETRON, LUCENT_2, LUCENT_11):
            assert burst_savings_fraction(spec, 1) == pytest.approx(0.0)

    def test_savings_monotone_in_burst(self):
        for series in fig4_savings_vs_burst():
            assert list(series.y) == sorted(series.y)

    def test_savings_bounded_below_one(self):
        for series in fig4_savings_vs_burst():
            assert all(0.0 <= y < 1.0 for y in series.y)

    def test_idle_variant_saves_more(self):
        """Fig. 4: 'the energy savings are greater when nodes idle 100 ms
        before turning off'."""
        by_label = {s.label: s for s in fig4_savings_vs_burst()}
        for name in ("Cabletron", "Lucent (2Mbps)", "Lucent (11Mbps)"):
            base = by_label[name]
            idle = by_label[f"{name}-Idle"]
            assert all(i >= b for b, i in zip(base.y[1:], idle.y[1:]))

    def test_idle_savings_reach_high_fractions(self):
        """Fig. 4: idle curves approach 0.8-0.95."""
        by_label = {s.label: s for s in fig4_savings_vs_burst()}
        for name in ("Cabletron", "Lucent (2Mbps)", "Lucent (11Mbps)"):
            assert by_label[f"{name}-Idle"].y[-1] > 0.75

    def test_paper_rule_of_thumb_knee(self):
        """Fig. 4: 'the majority of savings are obtained when n = 10'."""
        for spec in (CABLETRON, LUCENT_2, LUCENT_11):
            assert knee_burst_size(spec) <= 10

    def test_invalid_burst(self):
        with pytest.raises(ValueError):
            burst_savings_fraction(CABLETRON, 0)

    def test_invalid_capture_fraction(self):
        with pytest.raises(ValueError):
            knee_burst_size(CABLETRON, capture_fraction=1.0)
