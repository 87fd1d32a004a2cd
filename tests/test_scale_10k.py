"""10k-node construction smoke: the flyweight/SoA path at full scale.

Marked ``slow``: nightly/full CI selects it explicitly (``-m slow``)
alongside ``repro bench --suite full``, whose ``scenario-compose-10k``
case carries the < 5 s acceptance budget.  This test pins *correctness*
of the at-scale build — flyweight sharing, lazy engine auto-selection,
routing of the collection workload — not its wall time.
"""

from __future__ import annotations

import pytest

from repro.models.scenario import ScenarioConfig, build_network, select_senders
from repro.net.routing import RoutingTable
from repro.sim.simulator import Simulator
from repro.topology.registry import TopologySpec

N = 10_000


@pytest.fixture(scope="module")
def built_10k():
    config = ScenarioConfig(
        model="dual",
        topology=TopologySpec.of(
            "uniform-random", n=N, width_m=2200.0, height_m=2200.0
        ),
        sink=0,
        n_senders=10,
        sim_time_s=10.0,
        seed=1,
    )
    sim = Simulator(seed=config.seed)
    return config, sim, build_network(config, sim)


@pytest.mark.slow
class TestTenThousandNodeBuild:
    def test_fleet_is_complete(self, built_10k):
        config, _sim, built = built_10k
        assert len(built.agents) == N
        assert len(built.low_radios) == N
        assert len(built.high_radios) == N
        assert built.meter_bank is not None
        assert built.meter_bank.n_nodes == N

    def test_auto_routing_picks_lazy_and_stays_lazy(self, built_10k):
        config, _sim, built = built_10k
        assert config.routing_engine() == "lazy"
        agent = built.agents[1]
        for table in (agent.low_routing, agent.high_routing):
            assert isinstance(table, RoutingTable) and not table.threaded
        # The collection workload (senders + sink) computes a handful of
        # trees, not 10k — the property that makes the scale affordable.
        assert agent.low_routing.trees_computed <= config.n_senders + 1

    def test_flyweight_specs_are_shared(self, built_10k):
        config, _sim, built = built_10k
        sink_spec = built.agents[config.sink].spec
        other_specs = {
            id(built.agents[node].spec) for node in (1, 2, 5000, N - 1)
        }
        assert len(other_specs) == 1
        assert id(sink_spec) not in other_specs
        # The sink advertises an unbounded buffer; motes share one config.
        assert built.agents[config.sink].config.buffer_capacity_bytes == float(
            "inf"
        )
        assert built.agents[1].config is built.agents[N - 1].config

    def test_senders_route_to_sink(self, built_10k):
        config, sim, built = built_10k
        table = built.agents[0].low_routing
        for sender in select_senders(config, sim):
            assert table.has_route(sender, config.sink)
            assert table.hops(sender, config.sink) >= 1
