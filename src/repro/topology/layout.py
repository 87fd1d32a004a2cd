"""Node layouts: the paper's grid and line deployments, plus generated ones.

A :class:`Layout` is simply an ordered mapping of integer node ids to
:class:`~repro.topology.geometry.Position`.  Connectivity is *not* stored
here — it is a function of each radio's range; routing builds its graphs
with ``CsrGraph.from_layout``.

Layouts are immutable once constructed, so derived data (:attr:`Layout.node_ids`,
:meth:`Layout.neighbors_within`) is computed once and served as cached
tuples.  :meth:`Layout.pairs_within` is the one spatial hash in the code
base: the routing graphs (``CsrGraph.from_layout``) and the medium's
neighbor index both take their candidate pairs from it.  Generator
functions cover the paper's deployments (grid, line) and the
scenario-composition axes beyond it (uniform random, clustered); the
registry in :mod:`repro.topology.registry` makes them nameable from
configs and the CLI.
"""

from __future__ import annotations

import math
import typing

from repro.topology.geometry import RANGE_EPSILON_M, Position, in_range


class Layout:
    """An immutable placement of nodes in the plane.

    Parameters
    ----------
    positions:
        Mapping of node id → position.  Ids need not be contiguous but the
        paper's layouts use ``0..n-1``.
    """

    def __init__(self, positions: typing.Mapping[int, Position]):
        if not positions:
            raise ValueError("a layout needs at least one node")
        self._positions = dict(positions)
        # Layouts are documented immutable: derived views are computed once.
        self._node_ids: tuple[int, ...] = tuple(self._positions)
        self._neighbors_cache: dict[tuple[int, float], tuple[int, ...]] = {}

    @property
    def node_ids(self) -> tuple[int, ...]:
        """All node ids in insertion order (cached tuple)."""
        return self._node_ids

    def __len__(self) -> int:
        return len(self._positions)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._positions

    def position(self, node_id: int) -> Position:
        """The position of ``node_id`` (KeyError if absent)."""
        return self._positions[node_id]

    def distance(self, a: int, b: int) -> float:
        """Euclidean distance between two nodes in meters."""
        return self._positions[a].distance_to(self._positions[b])

    def neighbors_within(self, node_id: int, range_m: float) -> tuple[int, ...]:
        """Ids of all *other* nodes within ``range_m`` of ``node_id``.

        Cached per ``(node, range)``: layouts are immutable, so the answer
        never changes after the first computation.
        """
        key = (node_id, range_m)
        cached = self._neighbors_cache.get(key)
        if cached is None:
            origin = self._positions[node_id]
            cached = tuple(
                other
                for other, pos in self._positions.items()
                if other != node_id and in_range(origin, pos, range_m)
            )
            self._neighbors_cache[key] = cached
        return cached

    def pairs_within(
        self, reach_m: float, node_ids: typing.Iterable[int] | None = None
    ) -> typing.Iterator[tuple[int, int]]:
        """Yield every unordered pair of ``node_ids`` (default: all nodes)
        at most ``reach_m`` apart, each once, via a spatial hash.

        The test is ``hypot(dx, dy) <= reach_m + RANGE_EPSILON_M`` — the
        same arithmetic as :func:`in_range` — so the result is exactly the
        pairs an O(n²) ``in_range`` scan accepts, in O(n·k) for k nodes per
        cell neighborhood.
        """
        # Cells are sized to the *inclusive* reach: a pair the predicate
        # accepts then never spans more than one cell per axis, so the
        # one-cell window below cannot miss grid neighbors placed at
        # exactly the range (and zero reaches keep a finite cell).
        limit = reach_m + RANGE_EPSILON_M
        cell = max(limit, 1e-9)
        positions = self._positions
        floor, hypot = math.floor, math.hypot
        buckets: dict[tuple[int, int], list[tuple[int, float, float]]] = {}
        for node in self._node_ids if node_ids is None else node_ids:
            x, y = positions[node]
            buckets.setdefault((floor(x / cell), floor(y / cell)), []).append(
                (node, x, y)
            )
        # Each unordered pair is tested exactly once: within a bucket, and
        # against the four "forward" neighbor buckets (the other four are
        # covered when those buckets take their turn).
        forward = ((1, -1), (1, 0), (1, 1), (0, 1))
        for (cx, cy), members in buckets.items():
            for i, (a, ax, ay) in enumerate(members):
                for b, bx, by in members[i + 1 :]:
                    if hypot(ax - bx, ay - by) <= limit:
                        yield a, b
            for dx, dy in forward:
                others = buckets.get((cx + dx, cy + dy))
                if not others:
                    continue
                for a, ax, ay in members:
                    for b, bx, by in others:
                        if hypot(ax - bx, ay - by) <= limit:
                            yield a, b


def grid_layout(rows: int = 6, cols: int = 6, spacing_m: float = 40.0) -> Layout:
    """The paper's evaluation layout: a ``rows × cols`` grid.

    Section 4.1 uses a 200×200 m² field with 36 nodes — a 6×6 grid with 40 m
    spacing (the sensor radio range), spanning x, y ∈ [0, 200].  Node ids
    are assigned row-major from the (0, 0) corner; the evaluation scenarios
    place the sink near the center (node 14), see
    :mod:`repro.models.scenario`.
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid must have at least one row and one column")
    positions = {
        row * cols + col: Position(col * spacing_m, row * spacing_m)
        for row in range(rows)
        for col in range(cols)
    }
    return Layout(positions)


def line_layout(n_nodes: int, spacing_m: float = 40.0) -> Layout:
    """The Section 2.2 multi-hop analysis layout: nodes on a line.

    With the default 40 m spacing and six nodes, the endpoints are 200 m
    apart: one Cabletron/Lucent-2 hop, five sensor-radio hops.
    """
    if n_nodes < 2:
        raise ValueError("a line needs at least two nodes")
    return Layout({i: Position(i * spacing_m, 0.0) for i in range(n_nodes)})


def _connected(layout: Layout, range_m: float) -> bool:
    """Whether every node reaches every other over links of ``range_m``
    (the :meth:`Layout.pairs_within` pairs, the ``in_range`` predicate)."""
    adjacency: dict[int, list[int]] = {node: [] for node in layout.node_ids}
    for a, b in layout.pairs_within(range_m):
        adjacency[a].append(b)
        adjacency[b].append(a)
    seen = {layout.node_ids[0]}
    stack = list(seen)
    while stack:
        for other in adjacency[stack.pop()]:
            if other not in seen:
                seen.add(other)
                stack.append(other)
    return len(seen) == len(adjacency)


def _sample_until_connected(
    sample: typing.Callable[[], Layout],
    connect_range_m: float | None,
    max_tries: int,
) -> Layout:
    """Draw layouts until one is connected at ``connect_range_m``.

    Resampling consumes the caller's rng deterministically, so the result
    is still a pure function of the stream state.  ``None`` disables the
    check (a single draw, exactly the historical behaviour).
    """
    if connect_range_m is None:
        return sample()
    for _ in range(max_tries):
        layout = sample()
        if _connected(layout, connect_range_m):
            return layout
    raise ValueError(
        f"no connected layout at range {connect_range_m} m after "
        f"{max_tries} draws; enlarge the range or densify the deployment"
    )


def random_layout(
    n_nodes: int,
    width_m: float,
    height_m: float,
    rng: typing.Any,
    connect_range_m: float | None = None,
    max_tries: int = 200,
) -> Layout:
    """Uniform random placement inside a ``width × height`` field.

    Parameters
    ----------
    rng:
        A ``random.Random``-like object (pass a named stream from
        :class:`repro.sim.RngRegistry` for reproducibility).
    connect_range_m:
        When set, resample (up to ``max_tries`` times, deterministically)
        until the layout's connectivity graph at this range is connected —
        a disconnected deployment cannot deliver to the sink at all, which
        makes it useless as a sweep cell.
    """
    if n_nodes < 1:
        raise ValueError("need at least one node")

    def sample() -> Layout:
        return Layout(
            {
                i: Position(rng.uniform(0.0, width_m), rng.uniform(0.0, height_m))
                for i in range(n_nodes)
            }
        )

    return _sample_until_connected(sample, connect_range_m, max_tries)


def clustered_layout(
    n_nodes: int,
    width_m: float,
    height_m: float,
    rng: typing.Any,
    clusters: int = 3,
    sigma_m: float = 20.0,
    connect_range_m: float | None = None,
    max_tries: int = 200,
) -> Layout:
    """Gaussian clusters around uniformly placed cluster heads.

    Models patchy real deployments (instrumented habitats, building
    wings): ``clusters`` centers are drawn uniformly in the field, and
    node ``i`` is placed normally (std ``sigma_m``) around center
    ``i % clusters``, clamped to the field.  Deterministic given ``rng``.
    """
    if n_nodes < 1:
        raise ValueError("need at least one node")
    if clusters < 1:
        raise ValueError("need at least one cluster")
    if sigma_m < 0:
        raise ValueError("sigma must be non-negative")

    def sample() -> Layout:
        centers = [
            Position(rng.uniform(0.0, width_m), rng.uniform(0.0, height_m))
            for _ in range(clusters)
        ]
        positions = {}
        for i in range(n_nodes):
            center = centers[i % clusters]
            positions[i] = Position(
                min(max(rng.gauss(center.x, sigma_m), 0.0), width_m),
                min(max(rng.gauss(center.y, sigma_m), 0.0), height_m),
            )
        return Layout(positions)

    return _sample_until_connected(sample, connect_range_m, max_tries)
