"""The scenario-composition axes: registries, specs, and composed builds.

Covers the pluggable topology/propagation/traffic/radio machinery end to
end: spec parsing and hashing-friendly plain-data form, generator
determinism (hypothesis), connectivity guarantees, the neighbor index's
equivalence with a brute-force scan, heterogeneous radio assignment, and
the guarantee that explicitly spelling out the paper's defaults through
the new axes reproduces the legacy construction bit for bit.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.index import NeighborIndex
from repro.channel.medium import Medium
from repro.channel.propagation import (
    PROPAGATION,
    DistancePrr,
    LogNormalShadowing,
    PropagationSpec,
    UnitDiscPropagation,
    build_propagation,
)
from repro.energy.meter import MeterBank
from repro.energy.radio_specs import CABLETRON, LUCENT_11, MICAZ
from repro.models.scenario import (
    RadioAssignment,
    ScenarioConfig,
    build_network,
    run_scenario,
)
from repro.radio.radio import LowPowerRadio
from repro.sim.simulator import Simulator
from repro.topology.layout import clustered_layout, random_layout
from repro.topology.registry import (
    TOPOLOGIES,
    TopologySpec,
    build_layout,
    topology_node_count,
)
from repro.traffic.generators import AudioBurstSource, CbrSource, PoissonSource
from repro.traffic.registry import TRAFFIC
from tests.oracles import nx_graph


def rng_for(seed, name="layout"):
    return Simulator(seed=seed).rng.stream(name)


# ---------------------------------------------------------------------------
# Specs: parsing, plain-data form, registry lookups.
# ---------------------------------------------------------------------------


class TestTopologySpec:
    def test_required_kinds_registered(self):
        for kind in ("grid", "line", "uniform-random", "clustered", "from-file"):
            assert kind in TOPOLOGIES

    def test_parse_round_trip(self):
        spec = TopologySpec.parse("uniform-random:n=24,width_m=160,height_m=80")
        assert spec.kind == "uniform-random"
        assert spec.kwargs() == {"n": 24, "width_m": 160, "height_m": 80}
        assert topology_node_count(spec) == 24

    def test_params_sorted_for_stable_hashing(self):
        a = TopologySpec.of("grid", rows=3, cols=4)
        b = TopologySpec.of("grid", cols=4, rows=3)
        assert a == b

    def test_unknown_kind_rejected_by_config(self):
        with pytest.raises(ValueError, match="unknown topology"):
            ScenarioConfig(topology=TopologySpec.of("donut"), sink=0)

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError, match="bad parameters"):
            build_layout(TopologySpec.of("grid", radius=7), rng_for(1))

    def test_node_count_matches_built_layout(self):
        for text in ("grid:rows=3,cols=5", "line:n=7",
                     "uniform-random:n=11,width_m=50,height_m=50",
                     "clustered:n=13,width_m=50,height_m=50,clusters=2"):
            spec = TopologySpec.parse(text)
            layout = build_layout(spec, rng_for(3))
            assert len(layout) == topology_node_count(spec)

    def test_from_file_inlines_positions(self, tmp_path):
        path = tmp_path / "layout.json"
        path.write_text(json.dumps({"positions": {"0": [0, 0], "1": [30, 0],
                                                  "2": [60, 0]}}))
        spec = TopologySpec.from_file(str(path))
        assert spec.kind == "from-file"
        assert topology_node_count(spec) == 3
        layout = build_layout(spec)
        assert layout.position(2).x == 60.0
        # the file's contents, not its path, are in the spec -> hash-safe
        assert "layout.json" not in repr(spec)

    def test_from_file_list_form(self, tmp_path):
        path = tmp_path / "layout.json"
        path.write_text(json.dumps([[0, 0], [10, 10]]))
        assert topology_node_count(TopologySpec.from_file(str(path))) == 2

    def test_from_file_requires_contiguous_ids(self):
        spec = TopologySpec.of("from-file", positions=((0, 0.0, 0.0),
                                                       (2, 10.0, 0.0)))
        with pytest.raises(ValueError, match="contiguous"):
            build_layout(spec)


class TestPropagationSpec:
    def test_required_kinds_registered(self):
        for kind in ("unit-disc", "log-normal", "distance-prr"):
            assert kind in PROPAGATION

    def test_parse(self):
        spec = PropagationSpec.parse("log-normal:sigma_db=6,path_loss_exp=3")
        assert spec.kind == "log-normal"
        assert spec.kwargs() == {"sigma_db": 6, "path_loss_exp": 3}

    def test_unknown_kind_rejected_by_config(self):
        with pytest.raises(ValueError, match="unknown propagation"):
            ScenarioConfig(propagation=PropagationSpec.of("telepathy"))

    def test_bad_params_rejected(self):
        from repro.topology.layout import grid_layout

        with pytest.raises(ValueError, match="bad parameters"):
            build_propagation(
                PropagationSpec.of("unit-disc", sigma_db=1), grid_layout(2, 2)
            )


# ---------------------------------------------------------------------------
# Generated layouts: determinism and connectivity (hypothesis).
# ---------------------------------------------------------------------------


class TestGeneratedLayoutProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31), n=st.integers(2, 40))
    def test_uniform_random_same_seed_same_positions(self, seed, n):
        a = random_layout(n, 120.0, 90.0, rng_for(seed))
        b = random_layout(n, 120.0, 90.0, rng_for(seed))
        assert [a.position(i) for i in a.node_ids] == [
            b.position(i) for i in b.node_ids
        ]

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31), n=st.integers(2, 40),
           clusters=st.integers(1, 5))
    def test_clustered_same_seed_same_positions(self, seed, n, clusters):
        kwargs = dict(clusters=clusters, sigma_m=15.0)
        a = clustered_layout(n, 100.0, 100.0, rng_for(seed), **kwargs)
        b = clustered_layout(n, 100.0, 100.0, rng_for(seed), **kwargs)
        assert [a.position(i) for i in a.node_ids] == [
            b.position(i) for i in b.node_ids
        ]

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31), n=st.integers(2, 25))
    def test_connect_range_yields_connected_graph(self, seed, n):
        networkx = pytest.importorskip("networkx")
        layout = random_layout(
            n, 100.0, 100.0, rng_for(seed), connect_range_m=45.0
        )
        assert networkx.is_connected(nx_graph(layout, 45.0))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31), n=st.integers(2, 25),
           clusters=st.integers(1, 4))
    def test_clustered_connect_range_yields_connected_graph(
        self, seed, n, clusters
    ):
        networkx = pytest.importorskip("networkx")
        layout = clustered_layout(
            n, 80.0, 80.0, rng_for(seed), clusters=clusters, sigma_m=10.0,
            connect_range_m=50.0,
        )
        assert networkx.is_connected(nx_graph(layout, 50.0))

    def test_impossible_connectivity_fails_loudly(self):
        with pytest.raises(ValueError, match="no connected layout"):
            random_layout(30, 5000.0, 5000.0, rng_for(7), connect_range_m=1.0,
                          max_tries=5)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_spec_build_is_deterministic(self, seed):
        spec = TopologySpec.parse("clustered:n=12,width_m=60,height_m=60")
        a = build_layout(spec, rng_for(seed))
        b = build_layout(spec, rng_for(seed))
        assert [a.position(i) for i in a.node_ids] == [
            b.position(i) for i in b.node_ids
        ]


# ---------------------------------------------------------------------------
# Layout caching (satellite): immutable-derived views are cached tuples.
# ---------------------------------------------------------------------------


class TestLayoutCaching:
    def test_node_ids_cached_tuple(self):
        from repro.topology.layout import grid_layout

        layout = grid_layout(3, 3)
        ids = layout.node_ids
        assert isinstance(ids, tuple)
        assert layout.node_ids is ids  # same object, not a rebuild

    def test_neighbors_within_cached_tuple(self):
        from repro.topology.layout import grid_layout

        layout = grid_layout(3, 3, 40.0)
        first = layout.neighbors_within(4, 40.0)
        assert isinstance(first, tuple)
        assert layout.neighbors_within(4, 40.0) is first
        # a different range is a different cache entry, not a stale hit
        assert set(layout.neighbors_within(4, 60.0)) >= set(first)


# ---------------------------------------------------------------------------
# Propagation models.
# ---------------------------------------------------------------------------


class _FakePort:
    def __init__(self, node_id, range_m):
        self.node_id = node_id
        self.range_m = range_m


class TestPropagationModels:
    def layout(self):
        from repro.topology.layout import line_layout

        return line_layout(5, 30.0)

    def test_unit_disc_matches_geometry(self):
        layout = self.layout()
        model = UnitDiscPropagation(layout)
        port = _FakePort(0, 65.0)
        assert model.link_audible(port, 1)
        assert model.link_audible(port, 2)
        assert not model.link_audible(port, 3)
        assert model.delivery_roll(port, 1) is True

    def test_log_normal_deterministic_and_symmetric(self):
        layout = self.layout()
        a = LogNormalShadowing(layout, rng_for(5, "prop"), sigma_db=6.0)
        b = LogNormalShadowing(layout, rng_for(5, "prop"), sigma_db=6.0)
        for i in range(5):
            for j in range(5):
                if i == j:
                    continue
                assert a._range_factor(i, j) == b._range_factor(i, j)
                assert a._range_factor(i, j) == a._range_factor(j, i)

    def test_log_normal_gains_bounded_by_max_audible(self):
        layout = self.layout()
        model = LogNormalShadowing(layout, rng_for(9, "prop"), sigma_db=8.0)
        port = _FakePort(0, 30.0)
        bound = model.max_audible_m(port)
        for other in range(1, 5):
            if model.link_audible(port, other):
                assert layout.distance(0, other) <= bound + 1e-6

    def test_distance_prr_monotone(self):
        layout = self.layout()
        model = DistancePrr(layout, rng_for(2, "prop"), exponent=3.0)
        port = _FakePort(0, 120.0)
        prrs = [model.prr(port, other) for other in range(1, 5)]
        assert prrs == sorted(prrs, reverse=True)
        assert prrs[0] > 0.9  # 30 m of 120 m range: near-perfect

    def test_distance_prr_floor(self):
        layout = self.layout()
        model = DistancePrr(layout, rng_for(2, "prop"), exponent=1.0,
                            floor=0.25)
        port = _FakePort(0, 121.0)
        assert model.prr(port, 4) >= 0.25


# ---------------------------------------------------------------------------
# Neighbor index vs brute force (the perf refactor must not change answers).
# ---------------------------------------------------------------------------


class TestNeighborIndex:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31), n=st.integers(2, 30),
           range_m=st.floats(5.0, 150.0))
    def test_matches_brute_force_scan(self, seed, n, range_m):
        from repro.topology.geometry import in_range

        layout = random_layout(n, 100.0, 100.0, rng_for(seed))
        ports = {i: _FakePort(i, range_m) for i in layout.node_ids}
        index = NeighborIndex(layout, ports, UnitDiscPropagation(layout))
        for node in layout.node_ids:
            origin = layout.position(node)
            expected = [
                other
                for other in ports
                if other != node
                and in_range(origin, layout.position(other), range_m)
            ]
            assert list(index.neighbors(node)) == expected
            for other in ports:
                assert index.is_neighbor(node, other) == (other in expected)

    def test_order_follows_registration_not_ids(self):
        from repro.topology.layout import line_layout

        layout = line_layout(4, 10.0)
        # register out of id order: the tuples must follow this order,
        # matching the historical registration-dict scan.
        ports = {2: _FakePort(2, 100.0), 0: _FakePort(0, 100.0),
                 3: _FakePort(3, 100.0), 1: _FakePort(1, 100.0)}
        index = NeighborIndex(layout, ports, UnitDiscPropagation(layout))
        assert index.neighbors(2) == (0, 3, 1)

    def test_medium_neighbors_boundary_inclusive(self, sim):
        from repro.topology.layout import grid_layout

        layout = grid_layout(2, 2, 40.0)  # orthogonal pairs at exactly 40 m
        medium = Medium(sim, layout, "t")
        bank = MeterBank(len(layout))
        for node in layout.node_ids:
            LowPowerRadio(sim, node, MICAZ, medium, bank.meter(node))
        assert set(medium.neighbors(0)) == {1, 2}
        assert medium.is_neighbor(0, 1) and not medium.is_neighbor(0, 3)


# ---------------------------------------------------------------------------
# Composed scenarios.
# ---------------------------------------------------------------------------


class TestRadioAssignment:
    def test_spec_for_default_and_overrides(self):
        assignment = RadioAssignment(
            default="Cabletron", overrides=((3, "Lucent (11Mbps)"),)
        )
        assert assignment.spec_for(3, MICAZ) == LUCENT_11
        assert assignment.spec_for(0, MICAZ) == CABLETRON

    def test_fallback_without_default(self):
        assignment = RadioAssignment(overrides=((1, "Cabletron"),))
        assert assignment.spec_for(0, LUCENT_11) == LUCENT_11
        assert assignment.spec_for(1, LUCENT_11) == CABLETRON

    def test_parse(self):
        assignment = RadioAssignment.parse("5=Cabletron,1=Mica")
        assert assignment.overrides == ((1, "Mica"), (5, "Cabletron"))

    def test_unknown_radio_rejected_at_config_time(self):
        with pytest.raises(KeyError, match="unknown radio"):
            ScenarioConfig(
                high_radios=RadioAssignment(overrides=((0, "AlienNIC"),))
            )

    def test_sink_only_cabletron_builds_and_meters_per_nic(self):
        config = ScenarioConfig(
            model="dual",
            rows=3,
            cols=3,
            sink=4,
            n_senders=3,
            sim_time_s=20.0,
            burst_packets=10,
            high_radios=RadioAssignment(overrides=((4, "Cabletron"),)),
        )
        sim = Simulator(seed=1)
        built = build_network(config, sim)
        assert built.high_radios[4].spec.name == "Cabletron"
        assert built.high_radios[0].spec.name == LUCENT_11.name
        result = run_scenario(config)
        assert result.delivered_bits >= 0  # runs to completion


class TestTrafficMix:
    def test_sources_follow_the_mix(self):
        config = ScenarioConfig(
            model="sensor",
            rows=3,
            cols=3,
            sink=0,
            n_senders=8,  # every non-sink node sends: ids deterministic
            sim_time_s=5.0,
            traffic="cbr",
            traffic_mix=((1, "poisson"), (2, "audio"), (3, "onoff")),
        )
        built = build_network(config, Simulator(seed=1))
        by_node = {source.node_id: source for source in built.sources}
        assert isinstance(by_node[1], PoissonSource)
        assert isinstance(by_node[2], AudioBurstSource)
        assert isinstance(by_node[3], AudioBurstSource)
        assert isinstance(by_node[4], CbrSource)

    def test_mix_nodes_are_forced_senders(self):
        # 36 nodes, 5 senders: nodes 16 and 33 would rarely be sampled,
        # but naming them in the mix guarantees they send.
        config = ScenarioConfig(
            model="sensor",
            n_senders=5,
            sim_time_s=5.0,
            traffic_mix=((16, "poisson"), (33, "audio")),
        )
        built = build_network(config, Simulator(seed=1))
        sender_ids = {source.node_id for source in built.sources}
        assert {16, 33} <= sender_ids
        assert len(sender_ids) == 5

    def test_unknown_mix_name_rejected(self):
        with pytest.raises(ValueError, match="unknown traffic"):
            ScenarioConfig(traffic_mix=((1, "telepathy"),))

    def test_mix_node_must_exist(self):
        with pytest.raises(ValueError, match="not deployed"):
            ScenarioConfig(rows=2, cols=2, sink=0, n_senders=1,
                           traffic_mix=((9, "cbr"),))

    def test_mix_cannot_name_the_sink(self):
        with pytest.raises(ValueError, match="sink"):
            ScenarioConfig(sink=14, traffic_mix=((14, "poisson"),))

    def test_mix_rejects_duplicates(self):
        with pytest.raises(ValueError, match="more than once"):
            ScenarioConfig(traffic_mix=((1, "poisson"), (1, "audio")))

    def test_mix_cannot_exceed_sender_count(self):
        with pytest.raises(ValueError, match="mix nodes always send"):
            ScenarioConfig(
                n_senders=1, traffic_mix=((1, "poisson"), (2, "audio"))
            )

    def test_registry_covers_paper_sources(self):
        assert {"cbr", "poisson", "audio", "onoff"} <= set(TRAFFIC.names())


class TestComposedDefaultsAreByteIdentical:
    """Spelling the paper's defaults through the axes changes nothing."""

    def test_explicit_grid_spec_reproduces_legacy_grid(self):
        base = ScenarioConfig(
            model="dual", sim_time_s=20.0, burst_packets=10, n_senders=5
        )
        explicit = base.replace(
            topology=TopologySpec.of("grid", rows=6, cols=6, spacing_m=40.0)
        )
        assert run_scenario(explicit) == run_scenario(base)

    def test_homogeneous_assignment_reproduces_legacy_fleet(self):
        base = ScenarioConfig(
            model="dual", sim_time_s=20.0, burst_packets=10, n_senders=5
        )
        assigned = base.replace(
            high_radios=RadioAssignment(default=LUCENT_11.name)
        )
        assert run_scenario(assigned) == run_scenario(base)


class TestRoutingFollowsAudibility:
    def test_heterogeneous_graph_uses_min_range(self):
        # 0 -35m- 1 -35m- 2 with Cabletrons (250 m) at 0 and 1 and a
        # Lucent 11 Mb/s (40 m) at 2: 0-2 (70 m) is inside 0's range but
        # outside 2's -> no edge (links must be heard both ways).
        config = ScenarioConfig(
            model="dual",
            topology=TopologySpec.of(
                "from-file",
                positions=((0, 0.0, 0.0), (1, 35.0, 0.0), (2, 70.0, 0.0)),
            ),
            sink=0,
            n_senders=2,
            sim_time_s=5.0,
            high_radios=RadioAssignment(
                default=CABLETRON.name, overrides=((2, LUCENT_11.name),)
            ),
        )
        built = build_network(config, Simulator(seed=1))
        assert built.route_tables["high"].adjacency.edges == [(0, 1), (1, 2)]
        # a uniform assignment reduces to the single-range graph
        uniform = config.replace(high_radios=RadioAssignment(default=CABLETRON.name))
        built = build_network(uniform, Simulator(seed=1))
        expected = nx_graph(built.layout, CABLETRON.range_m)
        assert set(built.route_tables["high"].adjacency.edges) == set(expected.edges)

    def test_shadowed_routing_only_uses_audible_links(self):
        # Heavy shadowing mutes/extends links; every routed edge must be
        # bidirectionally audible on the medium that carries it.
        config = ScenarioConfig(
            model="sensor",
            topology=TopologySpec.of("grid", rows=3, cols=3),
            propagation=PropagationSpec.of("log-normal", sigma_db=8.0),
            sink=4,
            n_senders=3,
            sim_time_s=5.0,
        )
        sim = Simulator(seed=3)
        built = build_network(config, sim)
        medium = built.mediums[0]
        table = built.agents[0].routing
        for a, b in table.adjacency.edges:
            assert medium.is_neighbor(a, b) and medium.is_neighbor(b, a)

    def test_unshadowed_routing_unchanged(self):
        # propagation=None keeps the historical nominal-range construction
        base = ScenarioConfig(model="sensor", sim_time_s=5.0, n_senders=3)
        built = build_network(base, Simulator(seed=1))
        table = built.agents[0].routing
        from repro.topology.layout import grid_layout

        expected = nx_graph(grid_layout(6, 6, 40.0), 40.0)
        assert set(table.adjacency.edges) == set(expected.edges)


class TestPartitionedDeployments:
    def test_partitioned_tier_fails_with_diagnosis(self):
        # two clusters 500 m apart: connected at neither tier's range
        spec = TopologySpec.of(
            "from-file",
            positions=((0, 0.0, 0.0), (1, 10.0, 0.0), (2, 500.0, 0.0),
                       (3, 510.0, 0.0)),
        )
        config = ScenarioConfig(
            model="sensor", topology=spec, sink=0, n_senders=3, sim_time_s=5.0
        )
        with pytest.raises(ValueError, match="partitioned"):
            build_network(config, Simulator(seed=1))


class TestComposedScenarioRuns:
    def test_all_topology_propagation_combinations_run(self):
        # Grid/line spacing sits below the 40 m nominal range: shadowed
        # runs keep their links unless a deep fade hits (exact-range
        # links would be muted by ANY negative gain).
        specs = {
            "grid": TopologySpec.of("grid", rows=3, cols=3, spacing_m=30.0),
            "line": TopologySpec.of("line", n=5, spacing_m=30.0),
            "uniform-random": TopologySpec.of(
                "uniform-random", n=9, width_m=80.0, height_m=80.0,
                connect_range_m=40.0,
            ),
            "clustered": TopologySpec.of(
                "clustered", n=9, width_m=80.0, height_m=80.0, clusters=2,
                sigma_m=10.0, connect_range_m=40.0,
            ),
        }
        props = {
            "unit-disc": None,
            "log-normal": PropagationSpec.of("log-normal", sigma_db=2.0),
            "distance-prr": PropagationSpec.of("distance-prr", exponent=6.0),
        }
        for tname, topology in specs.items():
            for pname, propagation in props.items():
                config = ScenarioConfig(
                    model="dual",
                    topology=topology,
                    propagation=propagation,
                    sink=0,
                    n_senders=3,
                    sim_time_s=10.0,
                    burst_packets=10,
                )
                result = run_scenario(config)
                assert result.sim_time_s == 10.0, (tname, pname)

    def test_composed_config_hashes_uniquely(self):
        base = ScenarioConfig(sink=0, n_senders=3, sim_time_s=10.0)
        variants = [
            base,
            base.replace(topology=TopologySpec.of("line", n=37)),
            base.replace(propagation=PropagationSpec.of("log-normal")),
            base.replace(high_radios=RadioAssignment(default="Cabletron")),
            base.replace(traffic_mix=((1, "poisson"),)),
        ]
        keys = {config.cache_key() for config in variants}
        assert len(keys) == len(variants)
