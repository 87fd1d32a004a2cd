"""Node churn end to end: epoch repair, power-down, lifetime metrics.

The heart of the fault subsystem is the claim that killing and reviving
a node leaves *no residue*: a retire → restore round trip must put the
neighbor index, the audibility groups, and the medium's busy refcounts
back into exactly the state a fresh build computes.  A hypothesis
property pins that, and scenario-level tests drive scripted deaths,
revivals, random churn, and battery depletion through every model.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from generator_mac import MAC_ENGINES, scenario_macs
from repro.channel.medium import Medium
from repro.energy.meter import MeterBank
from repro.energy.radio_specs import MICAZ
from repro.faults import FaultPlan
from repro.mac.frames import Frame, FrameKind
from repro.models.scenario import ScenarioConfig, run_scenario
from repro.radio.radio import LowPowerRadio
from repro.sim import Simulator
from repro.topology import line_layout
from repro.topology.layout import Layout, Position


def data_frame(src, dst, payload_bits=256, header_bits=64):
    return Frame(
        kind=FrameKind.DATA,
        src=src,
        dst=dst,
        payload_bits=payload_bits,
        header_bits=header_bits,
        require_ack=False,
    )


def build_fleet(layout, seed=1):
    sim = Simulator(seed=seed)
    medium = Medium(sim, layout, "test")
    bank = MeterBank(len(layout))
    radios = [
        LowPowerRadio(sim, i, MICAZ, medium, bank.meter(i))
        for i in range(len(layout))
    ]
    return sim, medium, radios


def index_state(index):
    """Every structure the epoch repair touches, as comparable values."""
    return (
        dict(index._neighbors),
        dict(index._neighbor_ranks),
        dict(index._members),
        dict(index._busy_groups),
        list(index.group_of_rank),
        index.n_groups,
        set(index.retired),
        set(index._links_down),
    )


@st.composite
def churn_case(draw):
    n = draw(st.integers(min_value=3, max_value=8))
    positions = draw(
        st.lists(
            st.tuples(
                st.floats(0.0, 120.0, allow_nan=False),
                st.floats(0.0, 120.0, allow_nan=False),
            ),
            min_size=n,
            max_size=n,
        )
    )
    victims = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=1,
            max_size=n,
            unique=True,
        )
    )
    links = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ).filter(lambda ab: ab[0] != ab[1]),
            max_size=3,
            unique_by=lambda ab: (min(ab), max(ab)),
        )
    )
    return positions, victims, links


class TestRetireRestoreRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(churn_case())
    def test_round_trip_matches_fresh_build(self, case):
        positions, victims, links = case
        layout = Layout(
            {i: Position(x, y) for i, (x, y) in enumerate(positions)}
        )
        _sim, medium, _radios = build_fleet(layout)
        fresh = medium._build_index()

        # Kill every victim and down every link, then undo it all —
        # interleaved, so intermediate epochs see mixed state.
        for node in victims:
            medium.retire_node(node)
        for a, b in links:
            medium.set_link(a, b, up=False)
        for a, b in links:
            medium.set_link(a, b, up=True)
        for node in victims:
            medium.restore_node(node)

        repaired = medium._build_index()
        assert index_state(repaired) == index_state(fresh)
        assert medium._busy == [0] * repaired.n_groups
        assert medium.topology_epoch == 2 * (len(victims) + len(links))

    def test_retired_node_excluded_from_neighbor_queries(self):
        layout = line_layout(4, 40.0)
        _sim, medium, _radios = build_fleet(layout)
        assert 1 in medium.neighbors(0)
        medium.retire_node(1)
        assert 1 not in medium.neighbors(0)
        assert medium.neighbors(1) == ()
        medium.restore_node(1)
        assert 1 in medium.neighbors(0)

    def test_retire_aborts_in_flight_frame(self):
        layout = line_layout(3, 40.0)
        sim, medium, radios = build_fleet(layout)
        received = []
        radios[1].set_receiver(received.append)
        radios[0].transmit(data_frame(0, 1, payload_bits=8192))

        def killer():
            yield sim.timeout(0.001)  # mid-frame
            radios[0].power_down()
            medium.retire_node(0)

        sim.process(killer())
        sim.run()
        assert received == []  # the aborted frame never lands
        assert all(count == 0 for count in medium._busy)


class TestScriptedScenarioChurn:
    def test_scripted_death_reports_finite_first_death(self):
        plan = FaultPlan(crashes=((10.0, 3), (20.0, 7)))
        for model in ("sensor", "wifi", "dual"):
            config = ScenarioConfig(
                model=model,
                sim_time_s=40.0,
                burst_packets=10,
                faults=plan,
            )
            result = run_scenario(config)
            counters = result.counters
            assert counters["faults.first_death_s"] == 10.0
            assert counters["faults.first_death_node"] == 3.0
            assert counters["faults.deaths"] == 2.0
            assert counters["faults.currently_dead"] == 2.0
            assert counters["faults.epochs"] == 2.0

    def test_recovery_restores_relay_and_counts(self):
        plan = FaultPlan(crashes=((10.0, 3),), recoveries=((20.0, 3),))
        config = ScenarioConfig(
            model="dual", sim_time_s=40.0, burst_packets=10, faults=plan
        )
        result = run_scenario(config)
        assert result.counters["faults.recoveries"] == 1.0
        assert result.counters["faults.currently_dead"] == 0.0
        assert result.delivered_bits > 0

    def test_dead_sink_partitions_and_drops_are_counted(self):
        plan = FaultPlan(crashes=((10.0, 14),), protect_sink=False)
        config = ScenarioConfig(
            model="dual", sim_time_s=30.0, burst_packets=10, faults=plan
        )
        result = run_scenario(config)
        assert result.counters["faults.partitioned_epochs"] >= 1.0
        assert result.counters["faults.unroutable_drops"] > 0

    def test_random_churn_is_seed_deterministic(self):
        plan = FaultPlan(crash_rate_per_node_s=0.002, mean_downtime_s=20.0)
        config = ScenarioConfig(model="sensor", sim_time_s=60.0, faults=plan)
        first = run_scenario(config)
        second = run_scenario(config)
        assert first.counters == second.counters
        assert first.counters["faults.deaths"] > 0

    def test_churn_across_mac_engines(self):
        # Fault machinery rides on the kernel's cancel/timer paths, which
        # the flat MAC and the generator reference use differently — a
        # faulted run must complete (and agree with itself) on both.
        plan = FaultPlan(crashes=((5.0, 2), (9.0, 8)), recoveries=((15.0, 2),))
        config = ScenarioConfig(
            model="dual", sim_time_s=25.0, burst_packets=10, faults=plan
        )
        results = {}
        for engine in MAC_ENGINES:
            with scenario_macs(engine):
                result = run_scenario(config)
            results[engine] = result.counters["faults.deaths"]
        assert set(results.values()) == {2.0}


class TestBatteryDepletion:
    def test_fleet_batteries_produce_battery_deaths(self):
        plan = FaultPlan(battery_capacity_j=40.0, battery_poll_s=5.0)
        config = ScenarioConfig(model="wifi", sim_time_s=120.0, faults=plan)
        result = run_scenario(config)
        counters = result.counters
        assert counters["faults.battery_deaths"] > 0
        assert counters["faults.first_death_s"] > 0
        assert (
            counters["faults.deaths"] == counters["faults.battery_deaths"]
        )

    def test_sink_protected_by_default(self):
        plan = FaultPlan(battery_capacity_j=40.0, battery_poll_s=5.0)
        config = ScenarioConfig(model="wifi", sim_time_s=120.0, faults=plan)
        result = run_scenario(config)
        # Every non-sink node can die, but the sink never does.
        assert result.counters["faults.deaths"] <= config.n_nodes - 1

    def test_battery_override_kills_only_listed_node(self):
        plan = FaultPlan(battery_overrides=((5, 1.0),), battery_poll_s=2.0)
        config = ScenarioConfig(model="wifi", sim_time_s=60.0, faults=plan)
        result = run_scenario(config)
        assert result.counters["faults.deaths"] == 1.0
        assert result.counters["faults.first_death_node"] == 5.0


class TestPowerDownAccounting:
    def test_power_down_drops_counted_not_crashed(self):
        # Kill a busy relay mid-run on every engine: queued frames must
        # resolve as counted drops, and the run must complete.
        plan = FaultPlan(crashes=((6.0, 2), (6.0, 8), (7.0, 13)))
        config = ScenarioConfig(
            model="dual", sim_time_s=20.0, burst_packets=10, faults=plan
        )
        for engine in MAC_ENGINES:
            with scenario_macs(engine):
                result = run_scenario(config)
            assert result.counters["faults.deaths"] == 3.0
            assert result.counters["faults.power_down_drops"] >= 0.0
