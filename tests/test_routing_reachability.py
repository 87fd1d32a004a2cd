"""The tree-free reachability query ``unreachable(sources, dst)``.

Fault epochs and the build-time sender check ask only whether each
sender can still reach the sink.  ``unreachable`` answers from witness
paths and a plain BFS, so it must agree exactly with ``has_route`` on
every engine — lazy BFS, eager (threaded) BFS and Dijkstra — through any
kill/revive sequence, while drawing no rng and building no tree.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.csr import CsrGraph
from repro.net.policy import ResidualEnergyCost, TxEnergyCost
from repro.net.routing import DijkstraRoutingTable, RoutingTable
from repro.topology.layout import Layout, Position

#: One step of a churn script: ("query", dst, sources) or ("flip", node),
#: which kills a live node or revives a dead one.
QUERY, FLIP = "query", "flip"


@st.composite
def churn_case(draw):
    n = draw(st.integers(min_value=2, max_value=20))
    positions = draw(
        st.lists(
            st.tuples(st.floats(0.0, 100.0), st.floats(0.0, 100.0)),
            min_size=n,
            max_size=n,
        )
    )
    range_m = draw(st.floats(10.0, 60.0))
    # One id past each end: unknown sources and destinations.
    node = st.integers(min_value=-1, max_value=n)
    steps = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just(QUERY), node, st.lists(node, min_size=1, max_size=8)
                ),
                st.tuples(st.just(FLIP), st.integers(0, n - 1)),
            ),
            min_size=1,
            max_size=30,
        )
    )
    seed = draw(st.integers(0, 2**32))
    return positions, range_m, steps, seed


def engines(layout, csr, seed):
    """A lazy BFS, an eager BFS and a residual-cost Dijkstra table."""
    # Some residuals are 0: the floored factor keeps every cost finite.
    residual = ResidualEnergyCost(lambda node: (node % 3) / 2)
    return [
        RoutingTable(csr, rng=random.Random(seed)),
        RoutingTable(csr, rng=random.Random(seed), threaded=True),
        DijkstraRoutingTable(
            csr, residual, layout=layout, rng=random.Random(seed)
        ),
    ]


@settings(max_examples=150, deadline=None)
@given(churn_case())
def test_unreachable_matches_has_route_through_churn(case):
    positions, range_m, steps, seed = case
    layout = Layout({i: Position(x, y) for i, (x, y) in enumerate(positions)})
    csr = CsrGraph.from_layout(layout, range_m)
    tables = engines(layout, csr, seed)
    dead: set[int] = set()
    asked: list[tuple[int, list[int]]] = []
    for step in steps:
        if step[0] == FLIP:
            dead ^= {step[1]}
            for table in tables:
                table.invalidate_epoch(table.epoch + 1, dead)
        else:
            _, dst, sources = step
            # The destination is always asked too: src == dst is reachable.
            asked.append((dst, [*sources, dst]))
        # Every query asked so far, again: witnesses found in earlier
        # epochs must be re-checked against this one's dead set.
        for dst, sources in asked:
            for table in tables:
                got = table.unreachable(sources, dst)
                assert got == [s for s in sources if not table.has_route(s, dst)]


def line_table(n=6, seed=3):
    layout = Layout({i: Position(10.0 * i, 0.0) for i in range(n)})
    return RoutingTable(
        CsrGraph.from_layout(layout, 10.0), rng=random.Random(seed)
    )


def test_source_on_another_witness_reuses_it():
    table = line_table()
    assert table.unreachable([5, 3], 0) == []
    witnesses = table._witnesses[0]
    assert witnesses[5] == [5, 4, 3, 2, 1, 0]
    assert witnesses[3] == [3, 2, 1, 0]  # the suffix of 5's witness
    # Killing 4 cuts 5 off but leaves 3's witness standing.
    table.invalidate_epoch(1, {4})
    assert table.unreachable([5, 3, 4], 0) == [5, 4]
    assert witnesses[3] == [3, 2, 1, 0]
    assert 5 not in witnesses
    # A revival only adds nodes: 5 is searched again and reaches 0.
    table.invalidate_epoch(2, set())
    assert table.unreachable([5], 0) == []


def test_dead_and_unknown_ids():
    table = line_table()
    table.invalidate_epoch(1, {0})
    # A dead destination reaches only itself; unknown ids reach nothing.
    assert table.unreachable([0, 2, 99], 0) == [2, 99]
    assert table.unreachable([99, 3], 99) == [3]
    table.invalidate_epoch(2, {2})
    assert table.unreachable([2, 1, 3], 0) == [2, 3]


def test_query_builds_no_tree_and_draws_nothing():
    layout = Layout({i: Position(10.0 * i, 0.0) for i in range(8)})
    csr = CsrGraph.from_layout(layout, 10.0)
    rngs = [random.Random(1), random.Random(1), random.Random(1)]
    tables = [
        RoutingTable(csr, rng=rngs[0]),
        RoutingTable(csr, rng=rngs[1], threaded=True),
        DijkstraRoutingTable(csr, TxEnergyCost(), layout=layout, rng=rngs[2]),
    ]
    for table, rng in zip(tables, rngs):
        table.invalidate_epoch(1, {5})
        trees = dict(table._trees)
        state = rng.getstate()
        assert table.unreachable([7, 6, 4, 1], 0) == [7, 6]
        assert table._trees == trees
        assert rng.getstate() == state
    lazy = tables[0]
    assert lazy.trees_computed == 0 and lazy.levels_expanded == 0
