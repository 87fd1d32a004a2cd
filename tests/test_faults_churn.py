"""Node churn end to end: epoch repair, power-down, lifetime metrics.

The heart of the fault subsystem is the claim that killing and reviving
a node leaves *no residue*: after every step the incrementally repaired
audibility groups must equal a global re-partition (up to relabelling),
and a retire → restore round trip must put the neighbor index back into
exactly the state a fresh build computes, with every busy refcount at
zero.  A hypothesis property pins that, and scenario-level tests drive
scripted deaths, revivals, random churn, and battery depletion through
every model.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.index import NeighborIndex
from repro.channel.medium import Medium
from repro.energy.meter import MeterBank
from repro.energy.radio_specs import MICAZ
from repro.faults import FaultPlan
from repro.mac.frames import Frame, FrameKind
from repro.models.scenario import ScenarioConfig, run_scenario
from repro.radio.radio import LowPowerRadio
from repro.runner import results_digest
from repro.sim import Simulator
from repro.topology import line_layout
from repro.topology.layout import Layout, Position
from repro.topology.registry import TopologySpec

#: sha256 of the churn cell below under each routing tie-break scheme.
#: Pinned so both epoch paths — the lazy (per-destination) rewind of
#: partially expanded trees and the eager (threaded) rebuild of every
#: tree from the shared stream — cannot drift silently under deaths
#: *and* revivals; perfbench pins the same paths only outside the
#: tier-1 suite.
GOLDEN_CHURN_DIGESTS = {
    "lazy": "10ba916d4e30a01fd3ffd4b026915faab56d3f1f7f7a47ad764a023e355bc71f",
    "eager": "6caf8edd5bffc8b91bdf99baeea00216f27a6b2bf2250b5e7af2c3aba7f1b6af",
}

#: sha256 of the 36-node dual cell with two crashes, a recovery and a
#: 3–4 link flap (``test_churn_run_partitions_only_at_index_builds``).
#: The first crash, at 5 s, lands before the first frame, so it is what
#: builds each medium's index; the flap and the recovery then run the
#: live busy-refcount replay on both media.
GOLDEN_LINK_EPOCH_DIGEST = (
    "52cbf94504b0cb9afc8cfe3dc809780b8034582a6094a6f9cb6810fbe6cd3fcc"
)

#: sha256 of the two scripted-fault cells of
#: ``test_churn_with_recovery_matches_pinned_digest`` and
#: ``test_power_down_drops_counted_not_crashed``, recorded while the flat
#: MAC and its generator-engine reference still ran side by side and
#: agreed on both.
GOLDEN_RECOVERY_DIGEST = (
    "b9b8983a912cb99c0d69801403fea6368b5376dda4be17ab291b14fb78e52b44"
)
GOLDEN_POWER_DOWN_DIGEST = (
    "0f7baa0edd52f55bfd072b6884d5e4b7eea0a0e56c268e309adb75cbeccd8767"
)


def data_frame(src, dst, payload_bits=256, header_bits=64):
    return Frame(
        kind=FrameKind.DATA,
        src=src,
        dst=dst,
        payload_bits=payload_bits,
        header_bits=header_bits,
        require_ack=False,
    )


#: A longer-reach Micaz: mixing it in makes audibility asymmetric.
LONG_REACH_MICAZ = dataclasses.replace(MICAZ, range_m=70.0)


def build_fleet(layout, seed=1, long_reach=()):
    sim = Simulator(seed=seed)
    medium = Medium(sim, layout, "test")
    bank = MeterBank(len(layout))
    radios = [
        LowPowerRadio(
            sim,
            i,
            LONG_REACH_MICAZ if i in long_reach else MICAZ,
            medium,
            bank.meter(i),
        )
        for i in range(len(layout))
    ]
    return sim, medium, radios


def neighbor_state(index):
    """Every neighbor structure the epoch repair touches, exactly."""
    return (
        dict(index._neighbors),
        dict(index._neighbor_ranks),
        dict(index._members),
        set(index.retired),
        set(index._links_down),
    )


def reference_groups(index, symmetric):
    """Global re-partition of ``index``'s current audible sets.

    The reference the incremental repair is checked against: the
    construction-time partition re-run over every node, with group ids in
    first-occurrence rank order.  ``symmetric`` is the pristine build's
    decision, which the index keeps for the whole run.  Returns
    ``(group_of_rank, busy_groups)``.
    """
    members = index._members
    node_order = index._node_order
    if symmetric:
        group_ids = {}
        group_of = [
            group_ids.setdefault(frozenset(members[node] | {node}), len(group_ids))
            for node in node_order
        ]
        busy_groups = {
            node: tuple(
                dict.fromkeys(
                    [group_of[rank]]
                    + [group_of[r] for r in index._neighbor_ranks[node]]
                )
            )
            for rank, node in enumerate(node_order)
        }
    else:
        group_of = list(range(len(node_order)))
        busy_groups = {
            node: (rank,) + index._neighbor_ranks[node]
            for rank, node in enumerate(node_order)
        }
    return group_of, busy_groups


def is_symmetric(index):
    members = index._members
    return all(
        node in members[other]
        for node, audible in members.items()
        for other in audible
    )


def canonical_groups(group_of, busy_groups):
    """The partition and covers relabelled in first-occurrence order."""
    relabel = {}
    for group in group_of:
        relabel.setdefault(group, len(relabel))
    return (
        [relabel[group] for group in group_of],
        {
            node: tuple(relabel[group] for group in groups)
            for node, groups in busy_groups.items()
        },
    )


def assert_groups_match_reference(index, symmetric):
    live = canonical_groups(index.group_of_rank, index._busy_groups)
    assert live == canonical_groups(*reference_groups(index, symmetric))
    assert len(set(index.group_of_rank)) <= index.n_groups <= len(index)
    # Each cover hits every rank of the sender's closed set exactly once.
    group_of = index.group_of_rank
    for rank, node in enumerate(index._node_order):
        groups = index._busy_groups[node]
        assert len(set(groups)) == len(groups)
        covered = sorted(r for r, g in enumerate(group_of) if g in groups)
        assert covered == sorted((rank, *index._neighbor_ranks[node]))


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
    # Up to two long-reach radios: most such cases are asymmetric, which
    # keeps per-rank singleton groups for the whole run.
    long_reach = draw(
        st.sets(st.integers(min_value=0, max_value=n - 1), max_size=2)
    )
    return positions, victims, links, long_reach


class TestRetireRestoreRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(churn_case())
    def test_round_trip_matches_fresh_build(self, case):
        positions, victims, links, long_reach = case
        layout = Layout(
            {i: Position(x, y) for i, (x, y) in enumerate(positions)}
        )
        _sim, medium, _radios = build_fleet(layout, long_reach=long_reach)
        live = medium._neighbor_index()
        symmetric = is_symmetric(live)
        assert live._symmetric == symmetric
        assert_groups_match_reference(live, symmetric)

        # Kill every victim and down every link, then undo it all —
        # interleaved, so intermediate epochs see mixed state.  After
        # every step the incrementally repaired index must equal a global
        # re-partition of its audible sets.
        steps = (
            [(medium.retire_node, (node,)) for node in victims]
            + [(medium.set_link, (a, b, False)) for a, b in links]
            + [(medium.set_link, (a, b, True)) for a, b in links]
            + [(medium.restore_node, (node,)) for node in victims]
        )
        for step, args in steps:
            step(*args)
            assert medium._index is live
            assert_groups_match_reference(live, symmetric)
            assert len(medium._busy) == live.n_groups

        assert not any(medium._busy)
        assert medium.topology_epoch == 2 * (len(victims) + len(links))
        assert live.global_partitions == 1
        rebuilt = NeighborIndex(layout, medium._ports, medium.propagation)
        assert neighbor_state(live) == neighbor_state(rebuilt)
        assert canonical_groups(
            live.group_of_rank, live._busy_groups
        ) == canonical_groups(rebuilt.group_of_rank, rebuilt._busy_groups)

    def test_churn_run_partitions_only_at_index_builds(self, monkeypatch):
        # Epoch repair is local: across a run with deaths, a revival and
        # a link flap, each neighbor index partitions its audibility
        # groups globally exactly once — when it is built.
        built = []
        original = NeighborIndex.__init__

        def recording(index, *args, **kwargs):
            original(index, *args, **kwargs)
            built.append(index)

        monkeypatch.setattr(NeighborIndex, "__init__", recording)
        plan = FaultPlan(
            crashes=((5.0, 2), (9.0, 8)),
            recoveries=((15.0, 2),),
            links_down=((6.0, 3, 4),),
            links_up=((12.0, 3, 4),),
        )
        config = ScenarioConfig(
            model="dual", sim_time_s=25.0, burst_packets=10, faults=plan
        )
        result = run_scenario(config)
        assert result.counters["faults.deaths"] == 2.0
        assert len(built) == 2  # one per medium
        assert sum(index.global_partitions for index in built) == len(built)
        assert results_digest([result]) == GOLDEN_LINK_EPOCH_DIGEST

    def test_retired_node_excluded_from_neighbor_queries(self):
        layout = line_layout(4, 40.0)
        _sim, medium, _radios = build_fleet(layout)
        assert 1 in medium.neighbors(0)
        medium.retire_node(1)
        assert 1 not in medium.neighbors(0)
        assert medium.neighbors(1) == ()
        medium.restore_node(1)
        assert 1 in medium.neighbors(0)

    def test_retired_node_leaves_asymmetric_audible_sets(self):
        # Node 0's long reach covers node 1, but 1 cannot reach back:
        # 1's retirement must still scrub it from 0's audible set.
        layout = Layout({0: Position(0.0, 0.0), 1: Position(0.0, 41.0)})
        _sim, medium, _radios = build_fleet(layout, long_reach={0})
        assert medium.neighbors(0) == (1,)
        assert medium.neighbors(1) == ()
        medium.retire_node(1)
        assert medium.neighbors(0) == ()
        medium.restore_node(1)
        assert medium.neighbors(0) == (1,)

    def test_retire_aborts_in_flight_frame(self):
        layout = line_layout(3, 40.0)
        sim, medium, radios = build_fleet(layout)
        received = []
        radios[1].set_receiver(received.append)
        radios[0].transmit(data_frame(0, 1, payload_bits=8192))

        def killer():
            radios[0].power_down()
            medium.retire_node(0)

        sim.call_later(0.001, killer)  # mid-frame
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

    def test_cut_relay_opens_and_closes_a_partition(self):
        # A 6-node line, senders 1-5 toward sink 0: relay 2 dying cuts 3-5
        # off (partitioned), sender 5 dying keeps 3-4 cut (partitioned),
        # and 2's recovery reconnects every live sender (dead 5 is gone,
        # not partitioned).  Exact counts, recorded before the partition
        # check stopped growing routing trees.
        plan = FaultPlan(
            crashes=((10.0, 2), (12.0, 5)), recoveries=((20.0, 2),)
        )
        config = ScenarioConfig(
            model="dual",
            topology=TopologySpec.of("line", n=6),
            sink=0,
            n_senders=5,
            sim_time_s=30.0,
            burst_packets=10,
            seed=1,
            faults=plan,
        )
        counters = run_scenario(config).counters
        assert counters["faults.epochs"] == 3.0
        assert counters["faults.partitioned_epochs"] == 2.0

    def test_random_churn_is_seed_deterministic(self):
        plan = FaultPlan(crash_rate_per_node_s=0.002, mean_downtime_s=20.0)
        config = ScenarioConfig(model="sensor", sim_time_s=60.0, faults=plan)
        first = run_scenario(config)
        second = run_scenario(config)
        assert first.counters == second.counters
        assert first.counters["faults.deaths"] > 0

    def test_crash_mid_wake_session_restarts_on_revival(self):
        # Node 0 dies inside the 0.81 ms Lucent wake that precedes its
        # burst at 10.15689 s: the wake's waiter dies with the radio.
        # On revival the agent must drop the stranded session, or it
        # blocks every later session toward that hop and node 0's
        # buffered packets never leave.
        from repro.models.scenario import Network, single_hop_config

        config = single_hop_config(
            rows=3, cols=3, sink=4, n_senders=8, seed=7, burst_packets=80,
            rate_bps=2000.0, sim_time_s=60.0,
            faults=FaultPlan(crashes=((10.1567, 0),), recoveries=((15.0, 0),)),
        )
        network = Network.build(config)
        network.run()
        result = network.result()
        agent = network.agents[0]
        assert result.counters["faults.recoveries"] == 1.0
        assert agent._sender_sessions == {}
        assert agent.buffer.total_bytes == 0.0
        assert agent.stats.bursts_completed == 1

    def test_shortcut_observer_survives_a_dead_destination(self):
        # A frame overheard after the sink died used to ask the learner
        # for the current route to the sink, and the RoutingError ended
        # the run.
        from repro.energy.radio_specs import CABLETRON

        config = ScenarioConfig(
            model="dual", rows=3, cols=3, sink=0, n_senders=8,
            rate_bps=2000.0, sim_time_s=20.0, seed=0, high_spec=CABLETRON,
            multihop=True, burst_packets=11, buffer_packets=16,
            shortcut_learning=True, shortcut_observation=True,
            faults=FaultPlan(crashes=((2.0, 0),)),
        )
        result = run_scenario(config)
        assert result.counters["faults.deaths"] == 1.0

    def test_churn_with_recovery_matches_pinned_digest(self):
        # Fault machinery rides on the kernel's cancel/timer paths: a
        # crash, a revival and a second crash must complete and keep
        # their pinned bytes.
        plan = FaultPlan(crashes=((5.0, 2), (9.0, 8)), recoveries=((15.0, 2),))
        config = ScenarioConfig(
            model="dual", sim_time_s=25.0, burst_packets=10, faults=plan
        )
        result = run_scenario(config)
        assert result.counters["faults.deaths"] == 2.0
        assert results_digest([result]) == GOLDEN_RECOVERY_DIGEST


def churn_config(routing):
    """A 60-node cell under Poisson churn with revivals (25 deaths, 24
    recoveries at this seed) and no link events."""
    return ScenarioConfig(
        model="dual",
        topology=TopologySpec.of(
            "uniform-random", n=60, width_m=160.0, height_m=160.0
        ),
        routing=routing,
        sink=0,
        n_senders=8,
        sim_time_s=60.0,
        burst_packets=10,
        seed=11,
        faults=FaultPlan(crash_rate_per_node_s=0.006, mean_downtime_s=5.0),
    )


class TestChurnGolden:
    @pytest.mark.parametrize("routing", sorted(GOLDEN_CHURN_DIGESTS))
    def test_churn_matches_pinned_digest(self, routing):
        result = run_scenario(churn_config(routing))
        assert result.counters["faults.deaths"] == 25.0
        assert result.counters["faults.recoveries"] == 24.0
        assert results_digest([result]) == GOLDEN_CHURN_DIGESTS[routing]


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
        # Kill busy relays mid-run: queued frames must resolve as counted
        # drops, and the run must complete with its pinned bytes.
        plan = FaultPlan(crashes=((6.0, 2), (6.0, 8), (7.0, 13)))
        config = ScenarioConfig(
            model="dual", sim_time_s=20.0, burst_packets=10, faults=plan
        )
        result = run_scenario(config)
        assert result.counters["faults.deaths"] == 3.0
        assert result.counters["faults.power_down_drops"] >= 0.0
        assert results_digest([result]) == GOLDEN_POWER_DOWN_DIGEST
