"""The routing-policy axis (PR 10): cost models, power ladder, plumbing.

Covers the pieces the equivalence properties don't: the registry and its
factories, the tx-energy / residual-energy cost surfaces (including the
route *divergence* they exist to produce), the discrete transmit-power
ladder and its billing, the shared live-residual helpers, and the
scenario/CLI/report plumbing that exposes the axis.
"""

import random

import pytest

from repro.energy.meter import MeterBank
from repro.energy.radio_specs import (
    FIRST_ORDER_RADIO_MODEL,
    MICAZ,
    TX_POWER_LEVELS,
    RadioEnergyModel,
    TxPowerLevel,
)
from repro.energy.residual import live_consumed_j, live_residual_fraction
from repro.net.csr import CsrGraph
from repro.net.policy import (
    POLICY_HOPS,
    POLICY_RESIDUAL,
    POLICY_TX_ENERGY,
    RESIDUAL_FLOOR,
    ROUTING_POLICIES,
    ROUTING_POLICY_NAMES,
    ResidualEnergyCost,
    RoutingPolicyContext,
    TxEnergyCost,
    build_cost_model,
)
from repro.net.routing import DijkstraRoutingTable
from repro.stats.metrics import ENERGY_TOTAL
from repro.topology.geometry import Position
from repro.topology.layout import Layout


def _line_layout(*xs: float) -> Layout:
    return Layout({i: Position(float(x), 0.0) for i, x in enumerate(xs)})


# ---------------------------------------------------------------------------
# The first-order radio energy model.
# ---------------------------------------------------------------------------


class TestRadioEnergyModel:
    def test_tx_cost_grows_superlinearly_with_distance(self):
        model = FIRST_ORDER_RADIO_MODEL
        one_long = model.tx_cost_j(320, 60.0)
        two_short = 2 * model.tx_cost_j(320, 30.0)
        assert two_short < one_long  # alpha=2: relaying beats shouting

    def test_zero_distance_degenerates_to_electronics(self):
        model = RadioEnergyModel()
        assert model.tx_cost_j(100, 0.0) == model.e_elec_j_per_bit * 100
        assert model.tx_cost_j(100, -1.0) == model.e_elec_j_per_bit * 100

    def test_path_loss_exponent_applies(self):
        steep = RadioEnergyModel(path_loss_exponent=4.0)
        flat = RadioEnergyModel(path_loss_exponent=2.0)
        assert steep.tx_cost_j(1, 10.0) > flat.tx_cost_j(1, 10.0)


# ---------------------------------------------------------------------------
# The discrete transmit-power ladder.
# ---------------------------------------------------------------------------


class TestTxPowerLadder:
    def test_cheapest_covering_level_wins(self):
        spec = MICAZ.replace(tx_power_levels=TX_POWER_LEVELS)
        assert spec.tx_power_for_range(5.0) == TX_POWER_LEVELS[0].p_tx_w
        assert spec.tx_power_for_range(10.0) == TX_POWER_LEVELS[0].p_tx_w
        assert spec.tx_power_for_range(25.0) == TX_POWER_LEVELS[2].p_tx_w
        assert spec.tx_power_for_range(40.0) == TX_POWER_LEVELS[3].p_tx_w

    def test_out_of_ladder_distance_falls_back_to_nominal(self):
        spec = MICAZ.replace(tx_power_levels=TX_POWER_LEVELS)
        assert spec.tx_power_for_range(100.0) == MICAZ.p_tx_w

    def test_empty_ladder_is_always_nominal(self):
        assert MICAZ.tx_power_levels == ()
        assert MICAZ.tx_power_for_range(1.0) == MICAZ.p_tx_w

    def test_levels_validated(self):
        with pytest.raises(ValueError, match="positive"):
            MICAZ.replace(
                tx_power_levels=(TxPowerLevel(p_tx_w=0.0, range_m=10.0),)
            )

    def test_ladder_never_exceeds_micaz_nominal(self):
        # The 40 m full-power step draws ~52 mW vs the 51 mW Table 1
        # nominal — selection at exactly nominal range must not silently
        # *increase* the bill, so scenarios pairing this ladder with
        # Micaz keep short-hop savings only.
        spec = MICAZ.replace(tx_power_levels=TX_POWER_LEVELS)
        assert spec.tx_power_for_range(30.0) < MICAZ.p_tx_w


# ---------------------------------------------------------------------------
# Registry and factories.
# ---------------------------------------------------------------------------


class TestPolicyRegistry:
    def test_all_policies_registered(self):
        assert ROUTING_POLICY_NAMES == (
            POLICY_HOPS,
            POLICY_TX_ENERGY,
            POLICY_RESIDUAL,
        )
        for name in ROUTING_POLICY_NAMES:
            assert ROUTING_POLICIES.entry(name).summary

    def test_hops_resolves_to_no_cost_model(self):
        assert build_cost_model(POLICY_HOPS, RoutingPolicyContext()) is None

    def test_tx_energy_factory_threads_context(self):
        model = RadioEnergyModel(path_loss_exponent=3.0)
        cost = build_cost_model(
            POLICY_TX_ENERGY,
            RoutingPolicyContext(energy_model=model, packet_bits=640),
        )
        assert isinstance(cost, TxEnergyCost)
        assert cost.energy_model is model
        assert cost.packet_bits == 640
        assert cost.dynamic is False

    def test_residual_requires_a_reader(self):
        with pytest.raises(ValueError, match="residual_fraction"):
            build_cost_model(POLICY_RESIDUAL, RoutingPolicyContext())

    def test_residual_factory_builds_dynamic_model(self):
        cost = build_cost_model(
            POLICY_RESIDUAL,
            RoutingPolicyContext(residual_fraction=lambda node: 1.0),
        )
        assert isinstance(cost, ResidualEnergyCost)
        assert cost.dynamic is True

    def test_unknown_policy_raises(self):
        with pytest.raises(KeyError):
            build_cost_model("steepest-descent", RoutingPolicyContext())


# ---------------------------------------------------------------------------
# Cost surfaces and the routes they produce.
# ---------------------------------------------------------------------------


class TestTxEnergyCost:
    def test_needs_a_layout(self):
        layout = _line_layout(0, 30)
        csr = CsrGraph.from_layout(layout, 60.0)
        with pytest.raises(ValueError, match="layout"):
            TxEnergyCost().edge_costs(csr, None)

    def test_costs_parallel_to_slots_and_symmetric(self):
        layout = _line_layout(0, 30, 60)
        csr = CsrGraph.from_layout(layout, 60.0)
        costs = TxEnergyCost().edge_costs(csr, layout)
        assert len(costs) == len(csr.indices)
        slot_cost = {}
        for row in range(len(csr.ids)):
            for j in range(csr.indptr[row], csr.indptr[row + 1]):
                slot_cost[(csr.ids[row], csr.ids[csr.indices[j]])] = costs[j]
        for (a, b), cost in slot_cost.items():
            assert cost == slot_cost[(b, a)]

    def test_prefers_two_short_hops_over_one_long(self):
        # 0 --30m-- 1 --30m-- 2 with a direct 60 m 0-2 edge in range:
        # min-hop goes direct, tx-energy relays through 1.
        layout = _line_layout(0, 30, 60)
        csr = CsrGraph.from_layout(layout, 60.0)
        table = DijkstraRoutingTable(csr, TxEnergyCost(), layout=layout)
        assert table.has_edge(0, 2)  # the long hop exists...
        assert table.path(0, 2) == [0, 1, 2]  # ...and is rejected
        assert table.hops(0, 2) == 2

    def test_path_cost_matches_energy_model(self):
        layout = _line_layout(0, 30, 60)
        csr = CsrGraph.from_layout(layout, 60.0)
        cost = TxEnergyCost(packet_bits=320)
        table = DijkstraRoutingTable(csr, cost, layout=layout)
        expected = 2 * FIRST_ORDER_RADIO_MODEL.tx_cost_j(320, 30.0)
        assert table.path_cost(0, 2) == pytest.approx(expected)


class TestResidualEnergyCost:
    def test_factors_are_inverse_residual_with_floor(self):
        layout = _line_layout(0, 30, 60)
        csr = CsrGraph.from_layout(layout, 60.0)
        fractions = {0: 1.0, 1: 0.25, 2: 0.0}
        cost = ResidualEnergyCost(lambda node: fractions[node])
        factors = cost.node_factors(csr)
        assert factors[0] == 1.0
        assert factors[1] == 4.0
        assert factors[2] == 1.0 / RESIDUAL_FLOOR  # clamped, never inf

    def test_routes_around_a_depleted_relay(self):
        # Square-ish diamond: 0 can reach sink 3 via relay 1 or relay 2
        # (equal geometry).  Deplete relay 1 and the route must use 2.
        layout = Layout({
            0: Position(0.0, 0.0),
            1: Position(30.0, 20.0),
            2: Position(30.0, -20.0),
            3: Position(60.0, 0.0),
        })
        csr = CsrGraph.from_layout(layout, 40.0)
        fractions = {0: 1.0, 1: 0.05, 2: 1.0, 3: 1.0}
        cost = ResidualEnergyCost(lambda node: fractions[node])
        table = DijkstraRoutingTable(
            csr, cost, layout=layout, rng=random.Random(11)
        )
        assert table.path(0, 3) == [0, 2, 3]

    def test_refresh_costs_folds_in_live_depletion(self):
        layout = Layout({
            0: Position(0.0, 0.0),
            1: Position(30.0, 20.0),
            2: Position(30.0, -20.0),
            3: Position(60.0, 0.0),
        })
        csr = CsrGraph.from_layout(layout, 40.0)
        fractions = {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0}
        cost = ResidualEnergyCost(lambda node: fractions[node])
        table = DijkstraRoutingTable(csr, cost, layout=layout)
        first = table.path(0, 3)
        relay = first[1]
        fractions[relay] = 0.05  # the battery poll observes depletion...
        table.refresh_costs()  # ...and the injector refreshes the table
        assert table.epoch == 0  # same epoch: no death happened
        rerouted = table.path(0, 3)
        assert rerouted[1] != relay

    def test_refresh_is_noop_for_static_models(self):
        layout = _line_layout(0, 30, 60)
        csr = CsrGraph.from_layout(layout, 60.0)
        table = DijkstraRoutingTable(csr, TxEnergyCost(), layout=layout)
        table.path(0, 2)
        before = table.trees_computed
        table.refresh_costs()
        table.path(0, 2)
        assert table.trees_computed == before  # memoized trees survived


# ---------------------------------------------------------------------------
# Live residual helpers (shared with the fault injector).
# ---------------------------------------------------------------------------


class _FlushableRadio:
    def __init__(self, bank, node, pending_j):
        self.bank = bank
        self.node = node
        self.pending_j = pending_j
        self.flushes = 0

    def flush_accounting(self):
        self.flushes += 1
        if self.pending_j:
            self.bank.charge(self.node, self.pending_j, "radio.high", "idle")
            self.pending_j = 0.0


class TestLiveResidual:
    def test_flushes_lazy_accounting_before_reading(self):
        bank = MeterBank(2)
        bank.charge(1, 3.0, "radio.low", "tx")
        radios = [
            _FlushableRadio(bank, 0, 0.0),
            _FlushableRadio(bank, 1, 2.0),
        ]
        assert live_consumed_j(bank, radios, 1) == 5.0
        assert radios[1].flushes == 1

    def test_no_high_tier_reads_directly(self):
        bank = MeterBank(1)
        bank.charge(0, 1.5, "radio.low", "tx")
        assert live_consumed_j(bank, [], 0) == 1.5

    def test_fraction_clamped_to_unit_interval(self):
        bank = MeterBank(1)
        assert live_residual_fraction(bank, [], 0, 10.0) == 1.0
        bank.charge(0, 20.0, "radio.low", "tx")  # overdrawn meter
        assert live_residual_fraction(bank, [], 0, 10.0) == 1e-6

    def test_zero_capacity_is_floored(self):
        bank = MeterBank(1)
        assert live_residual_fraction(bank, [], 0, 0.0) == 1e-6

    def test_matches_battery_poll_view(self):
        bank = MeterBank(1)
        radios = [_FlushableRadio(bank, 0, 4.0)]
        fraction = live_residual_fraction(bank, radios, 0, 16.0)
        assert fraction == pytest.approx(0.75)


# ---------------------------------------------------------------------------
# Scenario / CLI / report plumbing.
# ---------------------------------------------------------------------------


class TestScenarioPlumbing:
    def _config(self, policy, **extra):
        from repro.models.scenario import ScenarioConfig

        return ScenarioConfig(
            rows=3, cols=3, sink=4, n_senders=2, sim_time_s=30.0,
            burst_packets=20, spacing_m=30.0, routing_policy=policy, **extra,
        )

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown routing policy"):
            self._config("steepest-descent")

    @pytest.mark.parametrize("policy", ROUTING_POLICY_NAMES)
    def test_every_policy_runs_and_delivers(self, policy):
        from repro.models.scenario import run_scenario

        result = run_scenario(self._config(policy))
        assert result.delivered_bits > 0
        assert result.energy_j[ENERGY_TOTAL] > 0.0

    def test_tx_power_ladder_cuts_energy_on_short_hops(self):
        from repro.models.scenario import run_scenario

        nominal = run_scenario(self._config("hops"))
        laddered = run_scenario(self._config(
            "hops", low_spec=MICAZ.replace(tx_power_levels=TX_POWER_LEVELS)
        ))
        assert laddered.delivered_bits == nominal.delivered_bits
        # 30 m grid hops select the 42 mW step instead of 51 mW nominal:
        # strictly cheaper, everything else identical.
        assert (
            laddered.energy_j[ENERGY_TOTAL] < nominal.energy_j[ENERGY_TOTAL]
        )

    def test_cli_flag_round_trips(self):
        from repro.cli.main import _run_config, _run_parser

        args = _run_parser().parse_args(
            ["--routing-policy", "tx-energy", "--senders", "2"]
        )
        assert _run_config(args).routing_policy == "tx-energy"

    def test_scenarios_list_names_every_policy(self, capsys):
        from repro.cli import main

        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in ROUTING_POLICY_NAMES:
            assert name in out

    def test_report_names_the_policy(self):
        from repro.report.scenario import describe_composition

        lines = describe_composition(self._config("residual-energy"))
        assert any(
            "routing" in line and "residual-energy" in line for line in lines
        )
        hops_lines = describe_composition(self._config("hops"))
        assert any("hops" in line for line in hops_lines)

    def test_policy_comparison_table_renders_deltas(self):
        from repro.report.scenario import render_policy_comparison
        from repro.stats.metrics import RunResult

        def result(energy, first_death):
            return RunResult(
                model="sensor", sim_time_s=10.0, generated_bits=1000.0,
                delivered_bits=1000.0, mean_delay_s=0.1, max_delay_s=0.2,
                energy_j={ENERGY_TOTAL: energy},
                counters={"faults.first_death_s": first_death},
            )

        table = render_policy_comparison({
            "hops": [result(2.0, 50.0)],
            "residual-energy": [result(2.2, 80.0)],
        })
        assert "+10.0%" in table
        assert "+30 s" in table
