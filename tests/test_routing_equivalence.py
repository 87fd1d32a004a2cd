"""Property tests: one BFS engine, two tie-break modes, Dijkstra on top.

For grid, uniform-random and clustered deployments, a per-destination
(lazy) table's answers must not depend on the order its trees are built
in: forced whole in ascending destination order, it agrees on next-hop,
hop count and reachability with a table queried in a shuffled pair order
that expands trees partially, level by level.

The threaded (eager) mode draws every tie from one stream and is pinned
separately by the golden digests (tests/test_determinism.py).  Against it
we still assert hop-count equality, before and after node deaths:
tie-breaking chooses *which* shortest path, never its length.

The cost engine behind the routing policies,
:class:`DijkstraRoutingTable`, has a stronger contract than shortest-path
agreement: under **unit edge costs** its trees must be *draw-for-draw
identical* to the BFS engine's per-destination trees (FIFO heap order ==
BFS frontier order; one shuffle per settled node).  That exact
equivalence is what lets the policy machinery ship without re-pinning a
single ``policy="hops"`` golden digest, so it gets its own property tests
here, including through an ``invalidate_epoch`` after node deaths.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.csr import CsrGraph
from repro.net.routing import DijkstraRoutingTable, RoutingTable
from repro.topology.layout import clustered_layout, grid_layout, random_layout

RANGE_M = 60.0


def _make_layout(kind: str, size: int, seed: int):
    if kind == "grid":
        rows = max(2, size // 6)
        return grid_layout(rows, 6, 40.0)
    if kind == "uniform-random":
        return random_layout(size, 180.0, 180.0, random.Random(seed))
    return clustered_layout(
        size, 180.0, 180.0, random.Random(seed), clusters=3, sigma_m=25.0
    )


topology_kinds = st.sampled_from(["grid", "uniform-random", "clustered"])
sizes = st.integers(min_value=6, max_value=36)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
modes = st.sampled_from(["sorted", "seeded"])


def _per_destination(layout, seed=None):
    """A per-destination table; ``seed=None`` breaks ties by lowest id."""
    rng = None if seed is None else random.Random(seed)
    return RoutingTable.from_layout(layout, RANGE_M, rng=rng)


def _tables(kind, size, seed, mode):
    """A per-destination table forced whole in ascending destination
    order, and a fresh twin left for queries to expand."""
    layout = _make_layout(kind, size, seed)
    tie_seed = None if mode == "sorted" else seed
    whole = _per_destination(layout, tie_seed)
    for dst in layout.node_ids:
        whole.depths_to(dst)
    return layout, whole, _per_destination(layout, tie_seed)


@given(kind=topology_kinds, size=sizes, seed=seeds, mode=modes)
@settings(max_examples=40, deadline=None)
def test_per_destination_routes_ignore_build_order(kind, size, seed, mode):
    layout, whole, queried = _tables(kind, size, seed, mode)
    # Shuffled pairs: trees materialize in random order, and each only as
    # far as the queried source needs.
    pairs = [
        (a, b) for a in layout.node_ids for b in layout.node_ids if a != b
    ]
    random.Random(seed ^ 0xA5A5).shuffle(pairs)
    for src, dst in pairs:
        assert queried.has_route(src, dst) == whole.has_route(src, dst)
        if whole.has_route(src, dst):
            assert queried.hops(src, dst) == whole.hops(src, dst)
            assert queried.next_hop(src, dst) == whole.next_hop(src, dst)


def _assert_same_hops(layout, a, b):
    for src in layout.node_ids:
        for dst in layout.node_ids:
            if src == dst:
                continue
            assert a.has_route(src, dst) == b.has_route(src, dst)
            if b.has_route(src, dst):
                assert a.hops(src, dst) == b.hops(src, dst)


@given(kind=topology_kinds, size=sizes, seed=seeds)
@settings(max_examples=25, deadline=None)
def test_lazy_hops_match_threaded_eager(kind, size, seed):
    """Hop counts are tie-break-invariant: per-destination == threaded,
    on the pristine graph and after an epoch of node deaths."""
    layout = _make_layout(kind, size, seed)
    threaded = RoutingTable.from_layout(
        layout, RANGE_M, rng=random.Random(seed), threaded=True
    )
    lazy = _per_destination(layout, seed + 1)
    _assert_same_hops(layout, lazy, threaded)
    nodes = list(layout.node_ids)
    dead = set(random.Random(seed ^ 0xD00D).sample(nodes, len(nodes) // 4))
    threaded.invalidate_epoch(1, dead)
    lazy.invalidate_epoch(1, dead)
    _assert_same_hops(layout, lazy, threaded)


class _UnitCost:
    """A hand-rolled LinkCostModel charging 1.0 per hop, no factors.

    Deliberately *not* the registry's ``hops`` policy (which maps to the
    BFS engines): this exercises the Dijkstra engine itself on the exact
    cost surface where its trees must reproduce BFS byte-for-byte.
    """

    dynamic = False

    def edge_costs(self, csr, layout):
        return [1.0] * len(csr.indices)

    def node_factors(self, csr):
        return None


def _dijkstra(layout, seed=None):
    rng = None if seed is None else random.Random(seed)
    return DijkstraRoutingTable(
        CsrGraph.from_layout(layout, RANGE_M),
        _UnitCost(),
        layout=layout,
        rng=rng,
    )


def _assert_same_routes(layout, reference, dijkstra, pair_seed=0):
    """Next-hop/hops/reachability identity over every (src, dst) pair.

    Pairs are queried in a shuffled order so tree materialization order
    can't mask an order dependence in either engine.
    """
    pairs = [
        (a, b) for a in layout.node_ids for b in layout.node_ids if a != b
    ]
    random.Random(pair_seed ^ 0x5A5A).shuffle(pairs)
    for src, dst in pairs:
        assert dijkstra.has_route(src, dst) == reference.has_route(src, dst)
        if reference.has_route(src, dst):
            assert dijkstra.hops(src, dst) == reference.hops(src, dst)
            assert dijkstra.next_hop(src, dst) == reference.next_hop(src, dst)


@given(kind=topology_kinds, size=sizes, seed=seeds, mode=modes)
@settings(max_examples=40, deadline=None)
def test_dijkstra_unit_costs_reproduce_bfs_trees(kind, size, seed, mode):
    """Unit-cost Dijkstra == per-destination BFS (partial or whole)."""
    layout, whole, queried = _tables(kind, size, seed, mode)
    dijkstra = _dijkstra(layout, seed=None if mode == "sorted" else seed)
    _assert_same_routes(layout, queried, dijkstra, pair_seed=seed)
    _assert_same_routes(layout, whole, dijkstra, pair_seed=seed + 1)


@given(kind=topology_kinds, size=sizes, seed=seeds)
@settings(max_examples=25, deadline=None)
def test_dijkstra_equivalence_survives_epoch_invalidation(kind, size, seed):
    """After node deaths both engines re-agree on the surviving topology.

    Also pins the epoch bookkeeping itself: dead nodes neither originate,
    relay, nor terminate routes on either engine.
    """
    layout = _make_layout(kind, size, seed)
    nodes = list(layout.node_ids)
    lazy = _per_destination(layout, seed)
    dijkstra = _dijkstra(layout, seed=seed)
    # Settle some pre-death trees so invalidation actually has state to
    # drop, then kill ~1/4 of the fleet (never all of it).
    probe = nodes[len(nodes) // 2]
    for src in nodes:
        if src != probe:
            lazy.has_route(src, probe)
            dijkstra.has_route(src, probe)
    deaths = random.Random(seed ^ 0xD00D)
    dead = set(deaths.sample(nodes, max(1, len(nodes) // 4)))
    lazy.invalidate_epoch(1, dead)
    dijkstra.invalidate_epoch(1, dead)
    assert dijkstra.epoch == lazy.epoch == 1
    _assert_same_routes(layout, lazy, dijkstra, pair_seed=seed)
    for node in dead:
        alive = next(n for n in nodes if n not in dead)
        assert not dijkstra.has_route(alive, node)
        assert not dijkstra.has_route(node, alive)


@given(kind=topology_kinds, size=sizes, seed=seeds)
@settings(max_examples=25, deadline=None)
def test_next_hop_is_a_neighbor_one_step_closer(kind, size, seed):
    """Structural soundness of the lazy trees: each hop descends the tree."""
    layout = _make_layout(kind, size, seed)
    lazy = _per_destination(layout, seed)
    nodes = list(layout.node_ids)
    sink = nodes[0]
    for src in nodes[1:]:
        if not lazy.has_route(src, sink):
            continue
        hop = lazy.next_hop(src, sink)
        assert lazy.has_edge(src, hop)
        expected = 0 if hop == sink else lazy.hops(hop, sink)
        assert expected == lazy.hops(src, sink) - 1
