"""Epoch repair of per-destination (lazy) routing: rewound trees are exact.

On a death or revival a per-destination table keeps, rewinds or drops each
memoized tree instead of discarding them all (trees started before the
first epoch record no rewind points and are dropped).  The claim is strict: after
every ``invalidate_epoch`` each memoized tree — however far it had been
expanded — must continue to exactly the rows a fresh table computes for
the same seed and dead set, ``_DEAD`` sentinels included.  Hypothesis
drives random geometric graphs through interleaved partial queries and
kill/revive sequences (dead and revived destinations too).
"""

import copy
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.csr import CsrGraph
from repro.net.routing import RoutingTable
from repro.topology.layout import Layout, Position

#: One step of a churn script: ("query", src, dst) expands dst's tree
#: until src settles; ("full", dst) expands it whole; ("flip", node)
#: kills a live node or revives a dead one.
QUERY, FULL, FLIP = "query", "full", "flip"


@st.composite
def rewind_case(draw):
    n = draw(st.integers(min_value=2, max_value=24))
    positions = draw(
        st.lists(
            st.tuples(st.floats(0.0, 100.0), st.floats(0.0, 100.0)),
            min_size=n,
            max_size=n,
        )
    )
    range_m = draw(st.floats(10.0, 60.0))
    node = st.integers(min_value=0, max_value=n - 1)
    steps = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just(QUERY), node, node),
                st.tuples(st.just(FULL), node),
                st.tuples(st.just(FLIP), node),
            ),
            min_size=1,
            max_size=30,
        )
    )
    seed = draw(st.one_of(st.none(), st.integers(0, 2**32)))
    return positions, range_m, steps, seed


def fresh_table(csr, seed, epoch, dead):
    rng = None if seed is None else random.Random(seed)
    table = RoutingTable(csr, rng=rng)
    table.invalidate_epoch(epoch, dead)
    return table


def assert_matches_fresh(table, csr, seed, dead):
    fresh = fresh_table(csr, seed, table.epoch, dead)
    probe = copy.deepcopy(table)
    for dst_idx, tree in table._trees.items():
        expected = fresh._tree(dst_idx)
        # The live (possibly partial) tree: every settled entry is final,
        # and every sentinel is already in place.
        parent, depth = tree.rows
        for i, (p, d) in enumerate(zip(parent, depth)):
            if d >= 0 or p < -1:
                assert (p, d) == (expected[0][i], expected[1][i])
        # Resumed to completion, it is the fresh tree exactly.
        assert probe._tree(dst_idx) == expected


@settings(max_examples=150, deadline=None)
@given(rewind_case())
def test_invalidated_trees_match_fresh_tables(case):
    positions, range_m, steps, seed = case
    layout = Layout({i: Position(x, y) for i, (x, y) in enumerate(positions)})
    csr = CsrGraph.from_layout(layout, range_m)
    table = RoutingTable(
        csr, rng=None if seed is None else random.Random(seed)
    )
    dead: set[int] = set()
    for step in steps:
        if step[0] == QUERY:
            _, src, dst = step
            table.has_route(src, dst)
        elif step[0] == FULL:
            table.depths_to(step[1])
        else:
            dead ^= {step[1]}
            table.invalidate_epoch(table.epoch + 1, dead)
            assert_matches_fresh(table, csr, seed, dead)


def line_table(n, seed):
    """Lazy routing on an n-node line, past its first (empty) epoch:
    trees record rewind points from the first epoch on."""
    layout = Layout({i: Position(10.0 * i, 0.0) for i in range(n)})
    table = RoutingTable(
        CsrGraph.from_layout(layout, 10.0), rng=random.Random(seed)
    )
    table.invalidate_epoch(1, set())
    return table


def test_trees_started_before_any_epoch_are_dropped():
    layout = Layout({i: Position(10.0 * i, 0.0) for i in range(10)})
    table = RoutingTable(
        CsrGraph.from_layout(layout, 10.0), rng=random.Random(3)
    )
    assert table.hops(2, 0) == 2
    assert table._trees[0].levels is None  # no rewind points recorded
    table.invalidate_epoch(1, {7})
    assert table._trees == {}
    assert table.hops(6, 0) == 6
    assert table._trees[0].levels is not None


def test_death_far_from_expanded_levels_keeps_the_tree():
    # A 10-node line: the tree toward node 0 expanded to node 2 has
    # expanded levels {0, 1}; node 7 dying touches none of them.
    table = line_table(10, seed=3)
    assert table.hops(2, 0) == 2
    tree = table._trees[0]
    table.invalidate_epoch(2, {7})
    assert table._trees[0] is tree
    assert table.trees_rewound == 0
    assert table.hops(6, 0) == 6
    assert not table.has_route(8, 0)


def test_death_next_to_expanded_level_rewinds():
    table = line_table(10, seed=3)
    table.depths_to(0)
    expanded = table.levels_expanded
    table.invalidate_epoch(2, {5})
    assert table.trees_rewound == 1
    assert table.depths_to(0) == {i: i for i in range(5)}
    # Levels 0-3 survived; only level 4 (node 4's, next to node 5) was
    # expanded again, and it settles nothing.
    assert table.levels_expanded == expanded + 1
    table.invalidate_epoch(3, set())
    assert table.trees_rewound == 2
    assert table.depths_to(0) == {i: i for i in range(10)}


def test_dead_destination_tree_is_dropped_and_revived():
    table = line_table(4, seed=5)
    assert table.has_route(3, 0)
    table.invalidate_epoch(2, {0})
    assert 0 not in table._trees
    assert not table.has_route(3, 0)
    table.invalidate_epoch(3, {0, 2})  # the dead tree stays as it is
    assert_matches_fresh(table, table.adjacency, 5, {0, 2})
    table.invalidate_epoch(4, {2})
    assert table.hops(1, 0) == 1
    assert not table.has_route(3, 0)
