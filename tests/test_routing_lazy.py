"""Unit tests for the CSR adjacency and the BFS routing engine's two
tie-break modes: lazy (per-destination) and eager (threaded)."""

import random

import pytest

from repro.models.scenario import ScenarioConfig
from repro.net.csr import CsrGraph
from repro.net.policy import ResidualEnergyCost
from repro.net.routing import (
    DijkstraRoutingTable,
    RoutingError,
    RoutingTable,
)
from repro.topology.layout import (
    Layout,
    grid_layout,
    line_layout,
    random_layout,
)
from repro.topology.geometry import Position
from tests.oracles import nx_graph


def _edge_set_nx(graph):
    return {tuple(sorted(edge)) for edge in graph.edges}


def _edge_set_csr(csr):
    return {
        tuple(sorted((csr.ids[i], csr.ids[j])))
        for i in range(len(csr.ids))
        for j in csr.indices[csr.indptr[i] : csr.indptr[i + 1]]
    }


class TestCsrGraph:
    def test_from_layout_matches_networkx_grid(self):
        layout = grid_layout(5, 5, 40.0)
        csr = CsrGraph.from_layout(layout, 40.0)
        assert _edge_set_csr(csr) == _edge_set_nx(nx_graph(layout, 40.0))

    def test_from_layout_matches_networkx_random(self):
        layout = random_layout(60, 200.0, 200.0, random.Random(11))
        csr = CsrGraph.from_layout(layout, 55.0)
        assert _edge_set_csr(csr) == _edge_set_nx(nx_graph(layout, 55.0))

    def test_from_links(self):
        csr = CsrGraph.from_links([3, 1, 2], [(1, 3), (3, 2)])
        assert csr.ids == (1, 2, 3)
        # Rows hold neighbor indexes: 3 is index 2, linked to 1 and 2.
        assert csr.indices[csr.indptr[2] : csr.indptr[3]] == [0, 1]
        assert csr.indices[csr.indptr[0] : csr.indptr[1]] == [2]
        assert csr.n_edges == 2

    def test_has_edge(self):
        csr = CsrGraph.from_links([0, 1, 2], [(0, 1)])
        assert csr.has_edge(0, 1) and csr.has_edge(1, 0)
        assert not csr.has_edge(0, 2)
        assert not csr.has_edge(0, 99)  # unknown node: False, not KeyError

    def test_rows_sorted_ascending(self):
        layout = random_layout(30, 120.0, 120.0, random.Random(5))
        csr = CsrGraph.from_layout(layout, 50.0)
        for i in range(len(csr)):
            row = csr.indices[csr.indptr[i] : csr.indptr[i + 1]]
            assert row == sorted(row)

    def test_membership_and_len(self):
        csr = CsrGraph.from_links([4, 7], [(4, 7)])
        assert 4 in csr and 7 in csr and 5 not in csr
        assert len(csr) == 2

    def test_epsilon_over_range_edge_survives_cell_boundaries(self):
        # in_range() accepts distances up to range + RANGE_EPSILON_M; an
        # edge a hair past the nominal range can straddle two cell
        # boundaries of a range-sized hash, so the cells must be sized to
        # the inclusive reach.  An in_range scan is the ground truth.
        layout = Layout(
            {0: Position(39.9999999, 0.0), 1: Position(80.0000004, 0.0)}
        )
        assert _edge_set_nx(nx_graph(layout, 40.0)) == {(0, 1)}
        csr = CsrGraph.from_layout(layout, 40.0)
        assert csr.has_edge(0, 1)


def _two_islands() -> Layout:
    """Two 2-node clusters far beyond radio range of each other."""
    return Layout(
        {
            0: Position(0.0, 0.0),
            1: Position(10.0, 0.0),
            2: Position(500.0, 0.0),
            3: Position(510.0, 0.0),
        }
    )


class _UnitCost:
    """A LinkCostModel charging 1.0 per hop: the Dijkstra engine on BFS
    costs."""

    dynamic = False

    def edge_costs(self, csr, layout):
        return [1.0] * len(csr.indices)

    def node_factors(self, csr):
        return None


def _islands_table(engine):
    """A routing table of ``engine`` over :func:`_two_islands`."""
    layout = _two_islands()
    if engine == "dijkstra":
        return DijkstraRoutingTable(
            CsrGraph.from_layout(layout, 40.0), _UnitCost(), layout=layout
        )
    return RoutingTable.from_layout(layout, 40.0, threaded=engine == "eager")


def _routing_error(query, *args):
    """The RoutingError text ``query(*args)`` raises."""
    with pytest.raises(RoutingError) as info:
        query(*args)
    return str(info.value)


@pytest.mark.parametrize("engine", ["eager", "lazy", "dijkstra"])
class TestRoutingErrorPaths:
    """One query contract, written once and held by every engine: the
    same answers and the same RoutingError text."""

    def test_next_hop_disconnected_raises(self, engine):
        table = _islands_table(engine)
        with pytest.raises(RoutingError, match="no route from 0 to 2"):
            table.next_hop(0, 2)

    def test_hops_disconnected_raises(self, engine):
        table = _islands_table(engine)
        with pytest.raises(RoutingError, match="no route"):
            table.hops(3, 1)

    def test_path_disconnected_raises(self, engine):
        table = _islands_table(engine)
        with pytest.raises(RoutingError):
            table.path(1, 3)

    def test_has_route_is_the_probe(self, engine):
        table = _islands_table(engine)
        assert table.has_route(0, 1)
        assert not table.has_route(0, 2)
        assert table.has_route(2, 2)

    def test_self_routing_raises_but_zero_hops(self, engine):
        table = _islands_table(engine)
        with pytest.raises(RoutingError, match="routing to itself"):
            table.next_hop(2, 2)
        assert table.hops(2, 2) == 0
        assert table.path(2, 2) == [2]

    def test_unknown_node_ids_raise_routing_error(self, engine):
        # Ids outside the graph go through the same documented paths as
        # disconnected pairs — RoutingError / has_route False, never a
        # bare KeyError.
        table = _islands_table(engine)
        with pytest.raises(RoutingError, match="no route"):
            table.next_hop(0, 99)
        with pytest.raises(RoutingError, match="no route"):
            table.hops(99, 0)
        assert not table.has_route(0, 99)
        assert not table.has_route(99, 0)
        assert table.has_route(99, 99)  # trivially self-routable
        assert table.depths_to(99) == {}

    def test_error_text_names_src_dst_and_epoch(self, engine):
        table = _islands_table(engine)
        # Unknown id, disconnected pair: the same message on every query.
        for src, dst in ((0, 99), (99, 0), (0, 2)):
            expected = f"no route from {src} to {dst} (topology epoch 0)"
            assert _routing_error(table.next_hop, src, dst) == expected
            assert _routing_error(table.hops, src, dst) == expected
        assert (
            _routing_error(table.next_hop, 2, 2) == "node 2 routing to itself"
        )

    def test_dead_node_after_invalidate_epoch(self, engine):
        table = _islands_table(engine)
        assert table.hops(0, 1) == 1
        table.invalidate_epoch(3, dead={1})
        assert table.epoch == 3
        assert not table.has_route(0, 1)
        assert not table.has_route(1, 0)
        assert _routing_error(table.next_hop, 0, 1) == (
            "no route from 0 to 1 (topology epoch 3)"
        )
        assert _routing_error(table.hops, 1, 0) == (
            "no route from 1 to 0 (topology epoch 3)"
        )
        # The other island is untouched, and a dead node is absent from
        # the surviving trees.
        assert table.next_hop(2, 3) == 3
        assert table.depths_to(0) == {0: 0}


class TestLazyRoutingTable:
    def test_sorted_mode_matches_eager_exactly(self):
        layout = grid_layout(5, 5, 40.0)
        eager = RoutingTable.from_layout(layout, 40.0, threaded=True)
        lazy = RoutingTable.from_layout(layout, 40.0)
        for src in layout.node_ids:
            for dst in layout.node_ids:
                if src == dst:
                    continue
                assert lazy.next_hop(src, dst) == eager.next_hop(src, dst)
                assert lazy.hops(src, dst) == eager.hops(src, dst)

    def test_trees_memoized(self):
        layout = grid_layout(4, 4, 40.0)
        lazy = RoutingTable.from_layout(layout, 40.0)
        assert lazy.trees_computed == 0
        lazy.next_hop(3, 0)
        assert lazy.trees_computed == 1
        lazy.hops(7, 0)
        lazy.next_hop(12, 0)
        assert lazy.trees_computed == 1  # same destination, no new BFS
        lazy.next_hop(0, 5)
        assert lazy.trees_computed == 2

    def test_rng_mode_is_query_order_independent(self):
        layout = random_layout(40, 160.0, 160.0, random.Random(3))
        pairs = [
            (a, b)
            for a in layout.node_ids
            for b in layout.node_ids
            if a != b
        ]
        forward = RoutingTable.from_layout(
            layout, 60.0, rng=random.Random(9)
        )
        backward = RoutingTable.from_layout(
            layout, 60.0, rng=random.Random(9)
        )
        answers_fwd = {}
        for a, b in pairs:
            if forward.has_route(a, b):
                answers_fwd[(a, b)] = forward.next_hop(a, b)
        for a, b in reversed(pairs):
            if backward.has_route(a, b):
                assert backward.next_hop(a, b) == answers_fwd[(a, b)]

    def test_incremental_expansion_matches_one_shot_build(self):
        """Settling a tree level by level across interleaved queries must
        reproduce the exact tree (and rng draw sequence) of building it
        exhaustively in one go."""
        layout = random_layout(60, 200.0, 200.0, random.Random(5))
        incremental = RoutingTable.from_layout(
            layout, 60.0, rng=random.Random(11)
        )
        one_shot = RoutingTable.from_layout(
            layout, 60.0, rng=random.Random(11)
        )
        dst = layout.node_ids[0]
        # Partial, near-to-far queries expand the incremental tree a few
        # levels at a time; depths_to then forces full expansion on both.
        for src in layout.node_ids[1:]:
            if incremental.has_route(src, dst):
                incremental.next_hop(src, dst)
        assert incremental.depths_to(dst) == one_shot.depths_to(dst)
        for src in layout.node_ids:
            if src == dst or not one_shot.has_route(src, dst):
                continue
            assert incremental.next_hop(src, dst) == one_shot.next_hop(
                src, dst
            )
            assert incremental.hops(src, dst) == one_shot.hops(src, dst)

    def test_path_walks_to_destination(self):
        layout = line_layout(6, 40.0)
        lazy = RoutingTable.from_layout(layout, 40.0)
        assert lazy.path(0, 5) == [0, 1, 2, 3, 4, 5]
        assert lazy.path(5, 0) == [5, 4, 3, 2, 1, 0]

    def test_tree_depths_matches_eager(self):
        layout = grid_layout(4, 5, 40.0)
        eager = RoutingTable.from_layout(layout, 40.0, threaded=True)
        lazy = RoutingTable.from_layout(layout, 40.0)
        assert lazy.depths_to(0) == eager.depths_to(0)

    def test_has_edge_and_len(self):
        layout = line_layout(4, 40.0)
        lazy = RoutingTable.from_layout(layout, 40.0)
        assert lazy.has_edge(1, 2) and not lazy.has_edge(0, 2)
        assert len(lazy) == 4


class TestThreadedMode:
    def test_builds_every_tree_up_front(self):
        layout = grid_layout(4, 4, 40.0)
        table = RoutingTable.from_layout(
            layout, 40.0, rng=random.Random(1), threaded=True
        )
        assert table.trees_computed == len(layout.node_ids)
        table.next_hop(3, 0)
        table.depths_to(5)
        assert table.trees_computed == len(layout.node_ids)

    def test_death_epoch_rebuilds_every_tree(self):
        layout = grid_layout(4, 4, 40.0)
        table = RoutingTable.from_layout(
            layout, 40.0, rng=random.Random(1), threaded=True
        )
        table.invalidate_epoch(1, {5})
        assert table.trees_computed == 2 * len(layout.node_ids)
        assert all(
            table._trees[i].levels is None for i in range(len(layout.node_ids))
        )
        for src in layout.node_ids:
            if src != 5 and src != 0:
                assert 5 not in table.path(src, 0)


@pytest.mark.parametrize("threaded", [True, False], ids=["eager", "lazy"])
def test_link_only_epoch_keeps_every_route(threaded):
    # FaultPlan link flips bump the epoch with an unchanged dead set:
    # routes are not rebuilt around a downed link, so not one next hop
    # may change (a threaded rebuild would reshuffle ties with fresh
    # draws from the shared stream).
    layout = grid_layout(6, 6, 40.0)
    table = RoutingTable.from_layout(
        layout, 40.0, rng=random.Random(1), threaded=threaded
    )
    pairs = [
        (a, b) for a in layout.node_ids for b in layout.node_ids if a != b
    ]
    before = [table.next_hop(a, b) for a, b in pairs]
    table.invalidate_epoch(1, ())
    assert table.epoch == 1
    assert [table.next_hop(a, b) for a, b in pairs] == before


def _route_or_error(table, src, dst):
    try:
        return table.next_hop(src, dst)
    except RoutingError as exc:
        return str(exc)


def _all_routes(table, nodes):
    return {
        (a, b): _route_or_error(table, a, b)
        for a in nodes
        for b in nodes
        if a != b
    }


class TestNextHopMemo:
    """``next_hop`` memoizes per pair; after every epoch and every cost
    refresh each answer equals a freshly built table's."""

    layout = grid_layout(5, 5, 40.0)

    def _check_epochs(self, table, fresh):
        nodes = self.layout.node_ids
        assert _all_routes(table, nodes) == _all_routes(fresh(0, ()), nodes)
        # Death, a link-only epoch (same dead set), then the revival.
        for epoch, dead in ((1, {12}), (2, {12}), (3, ())):
            table.invalidate_epoch(epoch, dead)
            expected = _all_routes(fresh(epoch, dead), nodes)
            assert _all_routes(table, nodes) == expected

    def test_per_destination_bfs(self):
        csr = CsrGraph.from_layout(self.layout, 40.0)

        def fresh(epoch, dead):
            table = RoutingTable(csr, rng=random.Random(5))
            table.invalidate_epoch(epoch, dead)
            return table

        self._check_epochs(RoutingTable(csr, rng=random.Random(5)), fresh)

    def test_threaded_bfs_matches_its_own_trees(self):
        # A threaded rebuild draws on from the shared stream, so no fresh
        # table reproduces it; the memo must match the rebuilt trees.
        csr = CsrGraph.from_layout(self.layout, 40.0)
        table = RoutingTable(csr, rng=random.Random(5), threaded=True)
        nodes = self.layout.node_ids
        _all_routes(table, nodes)
        table.invalidate_epoch(1, {12})
        for (a, b), hop in _all_routes(table, nodes).items():
            parent = table._tree(csr.index(b))[0][csr.index(a)]
            if parent >= 0:
                assert hop == csr.ids[parent]
            else:
                assert hop == str(table._no_route(a, b))

    def test_residual_dijkstra_epochs_and_refresh(self):
        csr = CsrGraph.from_layout(self.layout, 40.0)
        fractions = dict.fromkeys(self.layout.node_ids, 1.0)

        def build():
            return DijkstraRoutingTable(
                csr,
                ResidualEnergyCost(lambda node: fractions[node]),
                layout=self.layout,
                rng=random.Random(5),
            )

        def fresh(epoch, dead):
            table = build()
            table.invalidate_epoch(epoch, dead)
            return table

        table = build()
        self._check_epochs(table, fresh)
        nodes = self.layout.node_ids
        before = _all_routes(table, nodes)
        # Deplete the middle column's relays: same epoch, new routes.
        for node in (2, 7, 17, 22):
            fractions[node] = 0.05
        table.refresh_costs()
        expected = _all_routes(fresh(table.epoch, ()), nodes)
        assert expected != before
        assert _all_routes(table, nodes) == expected


class TestScenarioEngineSelection:
    def test_paper_grid_resolves_eager(self):
        assert ScenarioConfig().routing_engine() == "eager"

    def test_forced_engines(self):
        assert ScenarioConfig(routing="lazy").routing_engine() == "lazy"
        assert ScenarioConfig(routing="eager").routing_engine() == "eager"

    def test_auto_switches_above_threshold(self):
        from repro.topology.registry import TopologySpec

        config = ScenarioConfig(
            topology=TopologySpec.of(
                "uniform-random", n=300, width_m=400.0, height_m=400.0
            ),
            sink=0,
            n_senders=5,
        )
        assert config.routing_engine() == "lazy"

    def test_invalid_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown routing engine"):
            ScenarioConfig(routing="bogus")

    def test_lazy_scenario_runs_end_to_end(self):
        from repro.models.scenario import run_scenario

        result = run_scenario(
            ScenarioConfig(
                routing="lazy",
                n_senders=5,
                rate_bps=2000.0,
                burst_packets=10,
                sim_time_s=30.0,
            )
        )
        assert result.delivered_bits > 0
