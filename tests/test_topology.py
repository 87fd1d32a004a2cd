"""Layouts, geometry and connectivity graphs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.csr import CsrGraph
from repro.net.routing import RoutingTable
from repro.sim import Simulator
from repro.topology import (
    Layout,
    Position,
    grid_layout,
    in_range,
    line_layout,
    random_layout,
)
from repro.topology.geometry import RANGE_EPSILON_M
from repro.topology.layout import _connected
from tests.oracles import nx_graph


class TestGeometry:
    def test_distance(self):
        assert Position(0, 0).distance_to(Position(3, 4)) == 5.0

    def test_in_range_inclusive_at_boundary(self):
        assert in_range(Position(0, 0), Position(40, 0), 40.0)

    def test_out_of_range(self):
        assert not in_range(Position(0, 0), Position(40.1, 0), 40.0)


class TestGridLayout:
    def test_paper_grid_dimensions(self):
        """Section 4.1: 36 nodes covering 200x200 m."""
        grid = grid_layout(6, 6, 40.0)
        assert len(grid) == 36
        xs = [grid.position(n).x for n in grid.node_ids]
        ys = [grid.position(n).y for n in grid.node_ids]
        assert min(xs) == 0.0 and max(xs) == 200.0
        assert min(ys) == 0.0 and max(ys) == 200.0

    def test_row_major_ids(self):
        grid = grid_layout(2, 3, 10.0)
        assert grid.position(0) == Position(0.0, 0.0)
        assert grid.position(2) == Position(20.0, 0.0)
        assert grid.position(3) == Position(0.0, 10.0)

    def test_neighbors_at_sensor_range(self):
        grid = grid_layout(3, 3, 40.0)
        center = 4
        neighbors = sorted(grid.neighbors_within(center, 40.0))
        assert neighbors == [1, 3, 5, 7]  # orthogonal only; diagonal is 56m

    def test_connectivity_graph_connected_at_40m(self):
        assert _connected(grid_layout(6, 6, 40.0), 40.0)

    def test_graph_disconnected_below_spacing(self):
        assert not _connected(grid_layout(3, 3, 40.0), 30.0)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            grid_layout(0, 3)


class TestLineLayout:
    def test_section22_line(self):
        """Source and destination 200 m apart: 5 sensor hops."""
        line = line_layout(6, 40.0)
        assert line.distance(0, 5) == pytest.approx(200.0)
        assert RoutingTable.from_layout(line, 40.0).hops(0, 5) == 5

    def test_one_cabletron_hop(self):
        line = line_layout(6, 40.0)
        assert CsrGraph.from_layout(line, 250.0).has_edge(0, 5)

    def test_minimum_two_nodes(self):
        with pytest.raises(ValueError):
            line_layout(1)


class TestRandomLayout:
    def test_bounds_respected(self):
        sim = Simulator(seed=9)
        layout = random_layout(50, 100.0, 60.0, sim.rng.stream("layout"))
        for node in layout.node_ids:
            position = layout.position(node)
            assert 0.0 <= position.x <= 100.0
            assert 0.0 <= position.y <= 60.0

    def test_deterministic_given_stream(self):
        a = random_layout(10, 50, 50, Simulator(seed=5).rng.stream("layout"))
        b = random_layout(10, 50, 50, Simulator(seed=5).rng.stream("layout"))
        assert all(a.position(n) == b.position(n) for n in a.node_ids)

    def test_needs_nodes(self):
        with pytest.raises(ValueError):
            random_layout(0, 10, 10, Simulator(seed=1).rng.stream("x"))


class TestLayoutValidation:
    def test_empty_layout_rejected(self):
        with pytest.raises(ValueError):
            Layout({})

    def test_contains(self):
        grid = grid_layout(2, 2)
        assert 0 in grid
        assert 99 not in grid


class TestConnectedMatchesNetworkx:
    """``_connected`` (a search over ``pairs_within``) answers exactly
    what networkx's ``is_connected`` says of the ``in_range`` graph."""

    RANGE_M = 40.0

    @settings(max_examples=100, deadline=None)
    @given(
        cells=st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4)),
            min_size=1,
            max_size=12,
            unique=True,
        ),
        spacing=st.sampled_from(
            (
                RANGE_M,
                RANGE_M + RANGE_EPSILON_M,
                RANGE_M + 2 * RANGE_EPSILON_M,
                RANGE_M * 0.75,
            )
        ),
    )
    def test_grid_points_at_the_range_boundary(self, cells, spacing):
        # Orthogonal neighbours sit exactly at the range, at range + eps
        # (still linked), or just past it.
        layout = Layout(
            {
                i: Position(col * spacing, row * spacing)
                for i, (col, row) in enumerate(cells)
            }
        )
        networkx = pytest.importorskip("networkx")
        expected = networkx.is_connected(nx_graph(layout, self.RANGE_M))
        assert _connected(layout, self.RANGE_M) == expected

    @settings(max_examples=100, deadline=None)
    @given(
        points=st.lists(
            st.tuples(st.floats(0.0, 150.0), st.floats(0.0, 150.0)),
            min_size=1,
            max_size=25,
        )
    )
    def test_random_layouts(self, points):
        layout = Layout({i: Position(x, y) for i, (x, y) in enumerate(points)})
        networkx = pytest.importorskip("networkx")
        expected = networkx.is_connected(nx_graph(layout, self.RANGE_M))
        assert _connected(layout, self.RANGE_M) == expected

    def test_boundary_pairs_link(self):
        for gap in (self.RANGE_M, self.RANGE_M + RANGE_EPSILON_M):
            pair = Layout({0: Position(0.0, 0.0), 1: Position(gap, 0.0)})
            assert _connected(pair, self.RANGE_M)
        far = Layout(
            {0: Position(0.0, 0.0), 1: Position(self.RANGE_M + 1e-5, 0.0)}
        )
        assert not _connected(far, self.RANGE_M)
