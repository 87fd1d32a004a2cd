"""Boundary-distance semantics: index vs brute force at exactly the range.

Three code paths answer "who is within range" and must agree bit-for-bit,
including for nodes placed *exactly* at the nominal range (where a ``<``
vs ``<=`` disagreement, or float drift in the spatial hash's cell
arithmetic, would silently disconnect grid neighbours):

* :meth:`Layout.neighbors_within` — the O(n) brute-force scan (ground
  truth, uses :func:`in_range`'s inclusive epsilon);
* :class:`NeighborIndex` — the medium's precomputed audible sets;
* :meth:`CsrGraph.from_layout` — the routing engines' adjacency builder.

The last two share one spatial hash, :meth:`Layout.pairs_within`.

The hypothesis property below *constructs* exactly-at-range pairs: node
coordinates are integers and the radio range is set to the exact distance
of a randomly chosen pair, so every run exercises the boundary, not just
the interior.  A second property covers the inputs that one never draws —
mixed per-port reaches (asymmetric audibility), the log-normal and
distance-PRR propagation models, and ports on only a subset of the
layout's nodes — against an all-pairs ``link_audible`` scan.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.index import NeighborIndex
from repro.channel.propagation import (
    DistancePrr,
    LogNormalShadowing,
    UnitDiscPropagation,
)
from repro.net.csr import CsrGraph
from repro.topology.geometry import Position, in_range
from repro.topology.layout import Layout, grid_layout


class _FakePort:
    """The minimal port surface NeighborIndex needs (node_id, range_m)."""

    def __init__(self, node_id: int, range_m: float):
        self.node_id = node_id
        self.range_m = range_m


def _brute_force(layout: Layout, node: int, range_m: float) -> set[int]:
    return set(layout.neighbors_within(node, range_m))


def _index_sets(layout: Layout, range_m: float) -> dict[int, set[int]]:
    ports = {i: _FakePort(i, range_m) for i in layout.node_ids}
    index = NeighborIndex(layout, ports, UnitDiscPropagation(layout))
    return {i: set(index.neighbors(i)) for i in layout.node_ids}


def _csr_sets(layout: Layout, range_m: float) -> dict[int, set[int]]:
    csr = CsrGraph.from_layout(layout, range_m)
    ids, indptr, indices = csr.ids, csr.indptr, csr.indices
    return {
        ids[i]: {ids[j] for j in indices[indptr[i] : indptr[i + 1]]}
        for i in range(len(ids))
    }


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_exactly_at_range_agrees_everywhere(data):
    n = data.draw(st.integers(3, 16), label="n")
    coords = data.draw(
        st.lists(
            st.tuples(st.integers(0, 60), st.integers(0, 60)),
            min_size=n,
            max_size=n,
            unique=True,
        ),
        label="coords",
    )
    layout = Layout(
        {i: Position(float(x), float(y)) for i, (x, y) in enumerate(coords)}
    )
    # Pin the range to the exact float distance of one pair: that pair
    # sits precisely on the boundary every single example.
    a = data.draw(st.integers(0, n - 1), label="a")
    b = data.draw(st.integers(0, n - 1).filter(lambda v: v != a), label="b")
    range_m = layout.distance(a, b)
    index_sets = _index_sets(layout, range_m)
    csr_sets = _csr_sets(layout, range_m)
    for node in layout.node_ids:
        expected = _brute_force(layout, node, range_m)
        assert index_sets[node] == expected
        assert csr_sets[node] == expected
    # The boundary pair itself must be connected (inclusive semantics).
    assert b in index_sets[a] and a in index_sets[b]


def test_grid_neighbors_at_exact_spacing():
    # The paper's own boundary case: 40 m grid, 40 m radios.  Orthogonal
    # neighbours are exactly at range and must stay connected on every
    # representation.
    layout = grid_layout(3, 3, 40.0)
    for sets in (_index_sets(layout, 40.0), _csr_sets(layout, 40.0)):
        assert sets[4] == {1, 3, 5, 7}
        assert sets[0] == {1, 3}


def test_float_accumulated_spacing_matches_brute_force():
    # Positions built by repeated float addition (k * 0.1 is inexact)
    # drift off the lattice; the hash's cell arithmetic must not disagree
    # with the plain distance predicate about any of those pairs.
    spacing = 0.1
    layout = Layout(
        {
            row * 8 + col: Position(col * spacing, row * spacing)
            for row in range(8)
            for col in range(8)
        }
    )
    for range_m in (spacing, 2 * spacing, 3 * spacing):
        index_sets = _index_sets(layout, range_m)
        csr_sets = _csr_sets(layout, range_m)
        for node in layout.node_ids:
            expected = _brute_force(layout, node, range_m)
            assert index_sets[node] == expected, (node, range_m)
            assert csr_sets[node] == expected, (node, range_m)


def test_far_from_origin_offsets_do_not_diverge():
    # Cell indexes are floor(x / cell): far from the origin the quotient
    # loses absolute precision, which must never flip membership answers
    # against the brute-force scan.
    base = 1e7
    layout = Layout(
        {
            i: Position(base + i * 40.0, base - i * 40.0)
            for i in range(6)
        }
    )
    range_m = layout.distance(0, 1)  # exactly one step
    index_sets = _index_sets(layout, range_m)
    csr_sets = _csr_sets(layout, range_m)
    for node in layout.node_ids:
        expected = _brute_force(layout, node, range_m)
        assert index_sets[node] == expected
        assert csr_sets[node] == expected


def test_zero_range_ports_terminate_and_hear_colocated_only():
    # Regression for the degenerate spatial-hash cell: with zero-range
    # ports the historical cell size collapsed to 1e-9 m while the
    # epsilon-padded reach stayed 1e-6 m, exploding the scan window to
    # ~2000 cells per axis.  Cells are now sized to the inclusive reach,
    # so this returns (quickly) and only co-located nodes are audible
    # within in_range()'s epsilon.
    layout = Layout(
        {
            0: Position(0.0, 0.0),
            1: Position(0.0, 0.0),  # co-located: audible at range 0
            2: Position(5.0, 0.0),
            3: Position(0.0, 5.0),
        }
    )
    index_sets = _index_sets(layout, 0.0)
    assert index_sets[0] == {1}
    assert index_sets[2] == set()
    for node in layout.node_ids:
        assert index_sets[node] == _brute_force(layout, node, 0.0)
    assert in_range(Position(0.0, 0.0), Position(0.0, 0.0), 0.0)


def _propagation(kind: str, layout: Layout, seed: int):
    if kind == "log-normal":
        return LogNormalShadowing(layout, random.Random(seed), sigma_db=6.0)
    if kind == "distance-prr":
        return DistancePrr(layout, random.Random(seed))
    return UnitDiscPropagation(layout)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_index_matches_all_pairs_link_audible(data):
    n = data.draw(st.integers(2, 14), label="n")
    coords = data.draw(
        st.lists(
            st.tuples(st.integers(0, 100), st.integers(0, 100)),
            min_size=n,
            max_size=n,
            unique=True,
        ),
        label="coords",
    )
    layout = Layout(
        {i: Position(float(x), float(y)) for i, (x, y) in enumerate(coords)}
    )
    # A subset of the nodes, registered in drawn (not id) order.
    registered = data.draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True),
        label="registered",
    )
    # Per-port reaches mix round ranges with one exact pair distance, so
    # audibility is asymmetric and some links sit on the boundary.
    a = data.draw(st.integers(0, n - 1), label="a")
    b = data.draw(st.integers(0, n - 1).filter(lambda v: v != a), label="b")
    reach_choices = (0.0, 20.0, 40.0, 65.5, layout.distance(a, b))
    ports = {
        node: _FakePort(
            node, data.draw(st.sampled_from(reach_choices), label="reach")
        )
        for node in registered
    }
    kind = data.draw(
        st.sampled_from(("unit-disc", "log-normal", "distance-prr")),
        label="propagation",
    )
    propagation = _propagation(kind, layout, data.draw(st.integers(0, 99)))
    index = NeighborIndex(layout, ports, propagation)
    for node, port in ports.items():
        # The all-pairs reference, in registration order.
        expected = tuple(
            other
            for other in ports
            if other != node and propagation.link_audible(port, other)
        )
        assert index.neighbors(node) == expected
        for other in ports:
            assert index.is_neighbor(node, other) == (other in expected)
