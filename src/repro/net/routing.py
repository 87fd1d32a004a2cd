"""Static shortest-path routing over a radio's connectivity graph.

Section 4.1: "To decouple the routing effects on performance, two separate
trees that go over sensor and IEEE 802.11 radios are built."  We generalize
the collection tree to a next-hop table because BCP's wake-up handshake
also routes *away* from the sink: the WAKEUP travels sender → receiver and
the WAKEUP-ACK travels back.

Two engines implement the same query API, written once in
:class:`_QueryMixin` over one per-engine ``_tree`` accessor:

* :class:`RoutingTable` — the BFS engine: per-destination hop-count
  trees over a shared :class:`~repro.net.csr.CsrGraph` (int arrays, no
  networkx on the hot path), each a resume-able level-by-level BFS
  (:class:`_BfsTree`).  Its two tie-break modes (below) also decide when
  trees are built.
* :class:`DijkstraRoutingTable` — the cost engine behind the routing
  *policies* (:mod:`repro.net.policy`): a binary-heap Dijkstra over the
  same CSR arrays, consuming a :class:`~repro.net.policy.LinkCostModel`
  instead of unit hops.  Per-destination trees are memoized, ties break
  with the same derived per-destination streams, and under unit costs
  its trees are draw-for-draw identical to the BFS engine's (a property
  the test suite pins).

Tie-breaking between equal-length paths is deterministic by default
(lowest neighbor id).  On a perfectly regular grid that concentrates every
flow onto one row — a worst-case "backbone" that no real deployment's
collection tree exhibits — so the evaluation passes a seeded ``rng`` to
spread equal-cost routes across branches while keeping runs reproducible.
The BFS engine has two seeded schemes:

* threaded (``threaded=True``, "eager") — every destination's tree is
  built at construction, in ascending-id order, all consuming the
  caller's one rng stream: the historical draw sequence the pinned
  golden digests encode.  Inherently order-dependent, so it cannot be
  computed lazily; an epoch that changes the dead set rebuilds every
  tree the same way, with fresh draws from the stream.
* per-destination (``threaded=False``, "lazy", the default) — a single
  64-bit seed is drawn from the caller's rng at construction and each
  destination's tree shuffles with its own stream derived as
  ``sha256("route-tie:<seed>:<dst>")``.  Trees are identical no matter
  which destinations are computed, or in what order — the property that
  makes laziness sound: a tree is built on first use, only as far as the
  query needs, and a fault epoch rewinds it to the first level it
  affects instead of dropping it.

Routes minimize hop count; all query methods raise :class:`RoutingError`
for pairs with no connecting path (see :meth:`RoutingTable.next_hop`).
"""

from __future__ import annotations

import hashlib
import heapq
import random
import typing
from array import array

from repro.net.csr import CsrGraph
from repro.topology.layout import Layout

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.policy import LinkCostModel

#: Parent-array sentinel for a dead (retired) node: distinguishable from
#: ``-1`` (not settled / unreachable) so the BFS skips dead nodes without
#: any extra membership test on the hot path, while every query still
#: reads it as "no route" (< 0).  Only fault injection writes it.
_DEAD = -2


class RoutingError(Exception):
    """Raised when no route exists for a requested (src, dst) pair."""


def destination_rng(tie_seed: int, dst: int) -> random.Random:
    """The derived tie-break stream for one destination's BFS tree.

    Well-mixed (sha256) so adjacent destination ids don't get correlated
    Mersenne states, and a pure function of ``(tie_seed, dst)`` so a tree
    computed lazily is identical to one computed in a full build.
    """
    digest = hashlib.sha256(f"route-tie:{tie_seed}:{dst}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _bfs_level(
    indptr: typing.Sequence[int],
    indices: typing.Sequence[int],
    parent: list[int],
    depth: list[int],
    frontier: list[int],
    rng: typing.Any,
) -> list[int]:
    """Advance one BFS level from ``frontier``; returns the next frontier.

    Every ``-1`` neighbor of a frontier node is settled under it, one
    level deeper; parent choice order decides how ties break (CSR order
    = deterministic, shuffled = load-spreading).
    """
    next_frontier: list[int] = []
    for node in frontier:
        node_depth = depth[node] + 1
        if rng is None:
            for j in range(indptr[node], indptr[node + 1]):
                neighbor = indices[j]
                if parent[neighbor] == -1:
                    parent[neighbor] = node
                    depth[neighbor] = node_depth
                    next_frontier.append(neighbor)
        else:
            # A fresh slice per visit keeps the rng draw sequence
            # identical to the historical sort-then-shuffle (shuffle
            # consumption depends only on list length).
            order = indices[indptr[node] : indptr[node + 1]]
            rng.shuffle(order)
            for neighbor in order:
                if parent[neighbor] == -1:
                    parent[neighbor] = node
                    depth[neighbor] = node_depth
                    next_frontier.append(neighbor)
    return next_frontier


class _QueryMixin:
    """The query API shared by both engines, written once.

    An engine supplies ``adjacency`` (a :class:`CsrGraph`) and one
    accessor, ``_tree(dst_idx, src_idx=None)``, returning the parent and
    depth rows of the destination's tree in CSR index space (a negative
    entry means no route).  With ``src_idx`` the rows need only be
    settled for that source; without it they must cover the whole
    component.  Everything else — ``has_route``, ``next_hop``, ``hops``,
    ``depths_to``, ``path`` and the :class:`RoutingError` text — lives
    here.

    Every engine memoizes ``next_hop`` per ``(src, dst)`` pair in
    ``_hop_memo``; routes change only through :meth:`_resolve_dead` (an
    epoch) and a Dijkstra table's ``refresh_costs``, and both reset it.
    """

    adjacency: CsrGraph
    _hop_memo: dict[tuple[int, int], int]
    #: Topology epoch the current trees were computed against (0 =
    #: pristine build; only :meth:`invalidate_epoch` moves it).
    epoch: int = 0
    #: Currently-dead node ids / CSR indexes (empty on the no-fault path).
    _dead: frozenset[int] = frozenset()
    _dead_idx: frozenset[int] = frozenset()

    def _tree(
        self, dst_idx: int, src_idx: int | None = None
    ) -> tuple[list[int], list[int]]:
        """Parent and depth rows of ``dst_idx``'s tree (see class doc)."""
        raise NotImplementedError

    def invalidate_epoch(
        self, epoch: int, dead: typing.Iterable[int] = ()
    ) -> None:
        """Bring every memoized tree up to date with the ``dead`` nodes.

        ``dead`` is the full set of currently-retired node ids (not a
        delta); an unknown id is ignored, matching how queries treat
        unknown ids.  Dead nodes neither originate, relay, nor terminate
        routes — their rows read as unreachable.  Only fault injection
        calls this, so the no-fault hot paths never see a non-empty set.
        """
        raise NotImplementedError

    def _resolve_dead(
        self, epoch: int, dead: typing.Iterable[int]
    ) -> frozenset[int]:
        """Shared invalidation bookkeeping; returns the dead CSR indexes."""
        self._hop_memo = {}
        self.epoch = epoch
        self._dead = frozenset(dead)
        csr = self.adjacency
        self._dead_idx = frozenset(
            csr.index(node) for node in self._dead if node in csr
        )
        return self._dead_idx

    @property
    def node_ids(self) -> tuple[int, ...]:
        """All routable node ids, ascending."""
        return self.adjacency.ids

    def __len__(self) -> int:
        return len(self.adjacency.ids)

    def has_edge(self, a: int, b: int) -> bool:
        """Whether ``a`` and ``b`` are directly linked."""
        return self.adjacency.has_edge(a, b)

    def _pair_indexes(self, src: int, dst: int) -> tuple[int, int] | None:
        """Both ids' CSR indexes, or None when either id is unknown.

        Unknown ids surface through the same documented paths as
        disconnected pairs (RoutingError / has_route False), never as a
        bare KeyError.
        """
        # The CSR's id map read directly, not via two ``index`` calls:
        # every route query passes through here.
        index_of = self.adjacency._index_of
        try:
            return index_of[src], index_of[dst]
        except KeyError:
            return None

    def _no_route(self, src: int, dst: int) -> RoutingError:
        """The error every query raises for an unroutable pair."""
        return RoutingError(
            f"no route from {src} to {dst} (topology epoch {self.epoch})"
        )

    def has_route(self, src: int, dst: int) -> bool:
        """Whether a path from ``src`` to ``dst`` exists.

        ``src == dst`` is trivially True; an unknown id is False.
        """
        if src == dst:
            return True
        indexes = self._pair_indexes(src, dst)
        if indexes is None:
            return False
        src_idx, dst_idx = indexes
        return self._tree(dst_idx, src_idx)[0][src_idx] >= 0

    def next_hop(self, src: int, dst: int) -> int:
        """The neighbor of ``src`` on the chosen path to ``dst``.

        Raises
        ------
        RoutingError
            If the graph has no ``src`` → ``dst`` path (the pair is in
            different components, either node is isolated, dead or
            unknown), or ``src == dst`` (nothing to route).  Disconnected
            pairs are an *expected* outcome for composed deployments —
            callers that can degrade should probe :meth:`has_route` first.
        """
        try:
            return self._hop_memo[src, dst]
        except KeyError:
            pass
        if src == dst:
            raise RoutingError(f"node {src} routing to itself")
        indexes = self._pair_indexes(src, dst)
        if indexes is None:
            raise self._no_route(src, dst)
        src_idx, dst_idx = indexes
        hop = self._tree(dst_idx, src_idx)[0][src_idx]
        if hop < 0:
            raise self._no_route(src, dst)
        hop_id = self._hop_memo[src, dst] = self.adjacency.ids[hop]
        return hop_id

    def hops(self, src: int, dst: int) -> int:
        """Path length in hops (0 for ``src == dst``).

        Raises
        ------
        RoutingError
            If the graph has no ``src`` → ``dst`` path.
        """
        if src == dst:
            return 0
        indexes = self._pair_indexes(src, dst)
        if indexes is None:
            raise self._no_route(src, dst)
        src_idx, dst_idx = indexes
        count = self._tree(dst_idx, src_idx)[1][src_idx]
        if count < 0:
            raise self._no_route(src, dst)
        return count

    def depths_to(self, sink: int) -> dict[int, int]:
        """Hop length of every node's route to ``sink`` (incl. itself).

        Nodes with no route are left out; an unknown ``sink`` yields an
        empty dict.
        """
        csr = self.adjacency
        if sink not in csr:
            return {}
        depth = self._tree(csr.index(sink))[1]
        return {
            node: depth[i] for i, node in enumerate(csr.ids) if depth[i] >= 0
        }

    def path(self, src: int, dst: int) -> list[int]:
        """The full node sequence ``src ... dst`` of the chosen route.

        Raises
        ------
        RoutingError
            If the graph has no ``src`` → ``dst`` path.
        """
        if src == dst:
            return [src]
        path = [src]
        node = src
        limit = len(self.node_ids) + 1
        while node != dst:
            node = self.next_hop(node, dst)
            path.append(node)
            if len(path) > limit:  # pragma: no cover - safety
                raise RoutingError(f"routing loop from {src} to {dst}")
        return path


class _BfsTree:
    """Resume-able, rewindable BFS state for one destination's tree.

    ``parent``/``depth`` entries are final the moment they are assigned
    (BFS settles each node exactly once), so the tree can stop expanding
    between levels and resume later: the pending ``frontier`` plus the
    tree's ``rng`` capture the whole BFS state, and the shuffle-draw
    sequence of a resumed expansion is identical to an uninterrupted full
    build.  ``frontier`` is emptied when the reachable component is
    exhausted — after that a ``-1`` parent means unreachable rather than
    not-yet-expanded.

    ``levels`` keeps, per expanded level k, the frontier it expanded (the
    nodes at depth k) and the rng state taken just before — the internal
    Mersenne words as a compact ``array('I')`` — so an epoch change can
    rewind the tree to level k instead of discarding it.  It is None for
    a tree that records no rewind points (see
    :meth:`RoutingTable.invalidate_epoch`).
    """

    __slots__ = ("parent", "depth", "rows", "rng", "frontier", "levels")

    def __init__(
        self, n: int, dst_idx: int, rng: typing.Any, rewindable: bool
    ):
        self.parent = [-1] * n
        self.depth = [-1] * n
        self.parent[dst_idx] = dst_idx
        self.depth[dst_idx] = 0
        #: ``(parent, depth)``, built once for the shared queries.
        self.rows = (self.parent, self.depth)
        self.rng = rng
        self.frontier: list[int] = [dst_idx]
        self.levels: list[tuple[list[int], array | None]] | None = (
            [] if rewindable else None
        )

    def rewind(self, level: int) -> None:
        """Unsettle every node deeper than ``level`` and restore the BFS
        to the moment just before ``level`` was expanded."""
        parent, depth = self.parent, self.depth
        levels = self.levels
        for frontier, _state in levels[level + 1 :]:
            for node in frontier:
                parent[node] = -1
                depth[node] = -1
        for node in self.frontier:
            parent[node] = -1
            depth[node] = -1
        self.frontier, state = levels[level]
        del levels[level:]
        if state is not None:
            # getstate() is (version, words, gauss_next); shuffles never
            # fill the gauss cache, so the words are the whole state.
            self.rng.setstate((random.Random.VERSION, tuple(state), None))


class RoutingTable(_QueryMixin):
    """Per-destination hop-count BFS trees over a CSR adjacency.

    Parameters
    ----------
    adjacency:
        The shared :class:`~repro.net.csr.CsrGraph` (build it once from a
        :class:`Layout` — see :meth:`from_layout` — or a medium's
        neighbor index).
    rng:
        Optional seeded stream; when given, ties between equal-length
        parents break uniformly at random (deterministically for a seeded
        stream) instead of by lowest node id.
    threaded:
        The tie-break scheme (see the module docstring).  ``True`` builds
        every destination's tree at construction, in ascending index
        order, all drawing from ``rng`` itself — the paper goldens'
        scheme.  ``False`` (default) draws exactly **one** 64-bit seed
        from ``rng`` at construction; every destination then shuffles
        with its own derived stream (:func:`destination_rng`), so trees
        are identical regardless of query order and are built on demand.

    Notes
    -----
    Routes minimize hop count.  ``next_hop(u, v)`` is the neighbor of ``u``
    on the chosen shortest path to ``v``.

    Trees are not only lazy per destination but *incremental within* a
    destination: a query expands the destination's BFS level by level and
    stops as soon as the queried source is settled, memoizing the pending
    frontier (:class:`_BfsTree`).  A reverse-route query toward an
    adjacent node costs O(degree) instead of O(V + E) — the difference
    between milliseconds and seconds for the many short control-plane
    reverse routes a 10k-node collection round issues — while the settled
    prefix of every tree is bit-identical to a full build (parents never
    change once assigned, and the tree's rng stream resumes exactly where
    the last expansion left it).  A threaded table simply expands every
    tree whole before starting the next.

    Work counters (deterministic; not part of any run result):
    ``trees_computed`` counts destinations whose tree was started,
    ``levels_expanded`` BFS levels expanded, and ``trees_rewound`` trees
    an epoch change rewound rather than kept or dropped.
    """

    def __init__(
        self,
        adjacency: CsrGraph,
        rng: typing.Any = None,
        threaded: bool = False,
    ):
        self.adjacency = adjacency
        self._hop_memo = {}
        self.threaded = threaded
        self._rng = rng
        self._tie_seed: int | None = (
            None if rng is None or threaded else rng.getrandbits(64)
        )
        #: dst index → resume-able BFS state; -1 parents are unreachable
        #: only once the tree's frontier is exhausted.
        self._trees: dict[int, _BfsTree] = {}
        self.trees_computed = 0
        self.levels_expanded = 0
        self.trees_rewound = 0
        #: Whether new trees record rewind points; off until the first
        #: epoch change, so a run without faults never pays for them, and
        #: always off on a threaded table, which never rewinds.
        self._rewindable = False
        if threaded:
            self._build_all()

    @classmethod
    def from_layout(
        cls,
        layout: Layout,
        range_m: float,
        rng: typing.Any = None,
        threaded: bool = False,
    ) -> "RoutingTable":
        """Routing for radios of ``range_m`` deployed as ``layout``."""
        return cls(
            CsrGraph.from_layout(layout, range_m), rng=rng, threaded=threaded
        )

    def _build_all(self) -> None:
        """Build every destination's tree whole, in ascending index order.

        With a threaded rng that order *is* the draw sequence the golden
        digests pin.
        """
        for dst_idx in range(len(self.adjacency.ids)):
            self._tree(dst_idx)

    def invalidate_epoch(
        self, epoch: int, dead: typing.Iterable[int] = ()
    ) -> None:
        """Repair every memoized tree against the new ``dead`` set.

        An epoch that leaves the dead set unchanged (a link flip: routes
        are not rebuilt around a downed link) keeps every tree as it is.
        Otherwise a threaded table drops all its trees and rebuilds them
        the way its constructor did, with fresh draws from the shared
        stream.

        A per-destination table, with C the nodes whose liveness flipped,
        drops a tree whose destination is in C (recomputed on demand).
        Any other tree is rewound to r, the smallest depth of an
        already-expanded node adjacent to C: nodes deeper than r are
        unsettled, level r's rng state and frontier are restored, and
        queries resume from there.  With no such node the tree is kept as
        is, with C's ``_DEAD`` marks flipped.  The result is exactly the
        tree a fresh table computes for the new dead set: a level's draws
        depend only on visit order and slice lengths (dead nodes keep
        their slots), and no level expanded before r saw a node of C.

        Recording a level's rng state costs several shuffles' worth of
        time, so trees record rewind points only from the first call on;
        a tree started before it is dropped like one whose destination
        changed.
        """
        self._rewindable = not self.threaded
        old_dead = self._dead_idx
        dead_idx = self._resolve_dead(epoch, dead)
        changed = old_dead ^ dead_idx
        if not changed:
            return
        trees = self._trees
        if self.threaded:
            trees.clear()
            self._build_all()
            return
        csr = self.adjacency
        indptr, indices = csr.indptr, csr.indices
        for dst_idx in list(trees):
            if dst_idx in changed:
                del trees[dst_idx]
                continue
            if dst_idx in dead_idx:
                # A dead destination's tree settles nothing and carries
                # no marks besides its own, whoever else dies or revives.
                continue
            tree = trees[dst_idx]
            if tree.levels is None:
                del trees[dst_idx]
                continue
            depth = tree.depth
            expanded = len(tree.levels)
            rewind_to = expanded
            for node in changed:
                for j in range(indptr[node], indptr[node + 1]):
                    d = depth[indices[j]]
                    if 0 <= d < rewind_to:
                        rewind_to = d
            if rewind_to < expanded:
                tree.rewind(rewind_to)
                self.trees_rewound += 1
            # Every node of C is unsettled now (its settling level was
            # adjacent to it, so it lies deeper than the rewind point) and
            # outside the pending frontier, which only holds nodes settled
            # by expanded levels.
            parent = tree.parent
            for node in changed:
                parent[node] = _DEAD if node in dead_idx else -1

    def _tree(
        self, dst_idx: int, src_idx: int | None = None
    ) -> tuple[list[int], list[int]]:
        """``dst_idx``'s rows, expanded until ``src_idx`` settles.

        Stops at the first BFS level that reaches ``src_idx`` (or when
        the component is exhausted, which marks it unreachable); without
        ``src_idx`` the whole component is expanded.
        """
        try:
            tree = self._trees[dst_idx]
        except KeyError:
            tree = self._start_tree(dst_idx)
        # == -1 (not < 0): a dead source carries the _DEAD sentinel and
        # will never settle — expanding its component would be wasted.
        parent = tree.parent
        while tree.frontier and (src_idx is None or parent[src_idx] == -1):
            self._expand_level(tree)
        return tree.rows

    def _start_tree(self, dst_idx: int) -> _BfsTree:
        """Create and memoize the unexpanded tree state for ``dst_idx``."""
        csr = self.adjacency
        if self._tie_seed is None:
            rng = self._rng  # threaded, or None: deterministic ties
        else:
            rng = destination_rng(self._tie_seed, csr.ids[dst_idx])
        tree = _BfsTree(len(csr.ids), dst_idx, rng, self._rewindable)
        dead_idx = self._dead_idx
        if dead_idx:
            if dst_idx in dead_idx:
                # Dead destination: no expansion, everything unreachable.
                tree.frontier = []
                tree.parent[dst_idx] = _DEAD
                tree.depth[dst_idx] = -1
            else:
                # Pre-marking dead nodes as the _DEAD sentinel excludes
                # them from relaying (the == -1 settle test skips them)
                # with zero membership tests inside the hot loops, yet
                # they still occupy their slot in every shuffled slice so
                # draw counts stay independent of liveness.
                parent = tree.parent
                for i in dead_idx:
                    parent[i] = _DEAD
        self._trees[dst_idx] = tree
        self.trees_computed += 1
        return tree

    def _expand_level(self, tree: _BfsTree) -> None:
        """Advance ``tree`` by one BFS level, recording the rewind point."""
        csr = self.adjacency
        rng = tree.rng
        if tree.levels is not None:
            state = None if rng is None else array("I", rng.getstate()[1])
            tree.levels.append((tree.frontier, state))
        tree.frontier = _bfs_level(
            csr.indptr, csr.indices, tree.parent, tree.depth, tree.frontier, rng
        )
        self.levels_expanded += 1


class _CostTree:
    """One destination's settled Dijkstra tree (cost-space sibling of
    :class:`_BfsTree`; computed whole, as cost frontiers have no clean
    level structure to pause between)."""

    __slots__ = ("parent", "depth", "cost", "rows")

    def __init__(self, n: int):
        self.parent = [-1] * n
        self.depth = [-1] * n
        self.cost = [float("inf")] * n
        self.rows = (self.parent, self.depth)


class DijkstraRoutingTable(_QueryMixin):
    """Min-cost routing over a CSR adjacency under a pluggable cost model.

    Parameters
    ----------
    adjacency:
        The shared :class:`~repro.net.csr.CsrGraph`.
    cost_model:
        A :class:`~repro.net.policy.LinkCostModel`: static per-slot edge
        costs plus optional per-node transmitter multipliers.
    layout:
        Deployment geometry handed to the cost model for distances (may
        be ``None`` for models that don't need it).
    rng:
        Optional seeded stream; as in a per-destination BFS table,
        exactly one 64-bit draw is consumed at construction and each
        destination shuffles with its own derived stream
        (:func:`destination_rng`).

    Notes
    -----
    The heap orders entries by ``(cost, insertion counter)``: FIFO among
    equal costs.  With unit edge costs and uniform factors that makes the
    settle order exactly BFS frontier order, and since relaxation only
    ever *strictly* improves, parents land on the first discoverer — so
    the produced trees (and the rng draw sequence: one neighbor-slice
    shuffle per settled node, in settle order) are identical to a
    per-destination BFS table's.  Energy-based costs then diverge consciously.

    ``node_factors`` are re-read on :meth:`invalidate_epoch` (so residual
    costs see post-death meters) and on :meth:`refresh_costs` (so the
    fault injector's battery poll can fold live depletion into routes
    between epochs).  Edge costs are geometric and never change.
    """

    def __init__(
        self,
        adjacency: CsrGraph,
        cost_model: "LinkCostModel",
        layout: Layout | None = None,
        rng: typing.Any = None,
    ):
        self.adjacency = adjacency
        self._hop_memo = {}
        self.cost_model = cost_model
        self._tie_seed: int | None = (
            None if rng is None else rng.getrandbits(64)
        )
        self._edge_costs = list(cost_model.edge_costs(adjacency, layout))
        if len(self._edge_costs) != len(adjacency.indices):
            raise ValueError(
                f"cost model produced {len(self._edge_costs)} edge costs "
                f"for {len(adjacency.indices)} CSR slots"
            )
        self._factors = cost_model.node_factors(adjacency)
        self._trees: dict[int, _CostTree] = {}
        self.trees_computed = 0

    def invalidate_epoch(
        self, epoch: int, dead: typing.Iterable[int] = ()
    ) -> None:
        """Drop every memoized tree and re-read the node cost factors.

        This is O(1) plus one factor sweep; each
        surviving destination's tree is recomputed on first use against
        the new liveness set and factors.
        """
        self._resolve_dead(epoch, dead)
        self._trees.clear()
        self._factors = self.cost_model.node_factors(self.adjacency)

    def refresh_costs(self) -> None:
        """Fold live node-factor changes into future routes, same epoch.

        No-op for static cost models.  For dynamic ones (residual
        energy) the fault injector calls this from its battery poll so
        load shifts off depleting relays *before* they die — waiting for
        the death-driven epoch bump would defeat the policy's purpose.
        """
        if not self.cost_model.dynamic:
            return
        self._factors = self.cost_model.node_factors(self.adjacency)
        self._trees.clear()
        self._hop_memo = {}

    def _tree(
        self, dst_idx: int, src_idx: int | None = None
    ) -> tuple[list[int], list[int]]:
        """The memoized tree's rows (always settled whole)."""
        return self._cost_tree(dst_idx).rows

    def _cost_tree(self, dst_idx: int) -> _CostTree:
        """The memoized settled tree for ``dst_idx``."""
        tree = self._trees.get(dst_idx)
        if tree is None:
            tree = self._compute_tree(dst_idx)
            self._trees[dst_idx] = tree
            self.trees_computed += 1
        return tree

    def _compute_tree(self, dst_idx: int) -> _CostTree:
        csr = self.adjacency
        indptr, indices = csr.indptr, csr.indices
        n = len(csr.ids)
        edge_costs = self._edge_costs
        factors = self._factors
        tree = _CostTree(n)
        parent, depth, cost = tree.parent, tree.depth, tree.cost
        dead_idx = self._dead_idx
        if dead_idx:
            if dst_idx in dead_idx:
                # Dead destination: nothing to settle, everything
                # unreachable (mirrors the BFS engine).
                parent[dst_idx] = _DEAD
                return tree
            # Same sentinel trick as the BFS engine: dead nodes never
            # settle as relays yet still occupy their slice slots, so
            # shuffle draw counts stay independent of liveness.
            for i in dead_idx:
                parent[i] = _DEAD
        rng = (
            None
            if self._tie_seed is None
            else destination_rng(self._tie_seed, csr.ids[dst_idx])
        )
        parent[dst_idx] = dst_idx
        depth[dst_idx] = 0
        cost[dst_idx] = 0.0
        settled = bytearray(n)
        # (cost, insertion counter, node): FIFO among equal costs — the
        # property that makes unit-cost trees BFS-identical.
        heap: list[tuple[float, int, int]] = [(0.0, 0, dst_idx)]
        counter = 1
        while heap:
            _, _, node = heapq.heappop(heap)
            if settled[node]:
                continue  # stale entry superseded by a cheaper relaxation
            settled[node] = 1
            base = cost[node]
            node_depth = depth[node] + 1
            lo, hi = indptr[node], indptr[node + 1]
            if rng is None:
                order: typing.Iterable[int] = range(lo, hi)
            else:
                # Shuffling slot positions consumes the same draws as the
                # BFS engine's neighbor-slice shuffle (shuffle consumption
                # depends only on length) and visits neighbors in the same
                # permuted order, while keeping the slot at hand for the
                # edge-cost lookup.
                slots = list(range(lo, hi))
                rng.shuffle(slots)
                order = slots
            for j in order:
                neighbor = indices[j]
                if parent[neighbor] == _DEAD or settled[neighbor]:
                    continue
                step = edge_costs[j]
                if factors is not None:
                    # The node *entering* the tree transmits across this
                    # edge (trees grow destination-outward), so its factor
                    # scales the step.
                    step *= factors[neighbor]
                candidate = base + step
                if candidate < cost[neighbor]:
                    cost[neighbor] = candidate
                    parent[neighbor] = node
                    depth[neighbor] = node_depth
                    heapq.heappush(heap, (candidate, counter, neighbor))
                    counter += 1
        return tree

    def path_cost(self, src: int, dst: int) -> float:
        """Total link cost of the chosen route (0.0 for ``src == dst``).

        Raises
        ------
        RoutingError
            If the graph has no ``src`` → ``dst`` path.
        """
        if src == dst:
            return 0.0
        indexes = self._pair_indexes(src, dst)
        if indexes is None:
            raise self._no_route(src, dst)
        src_idx, dst_idx = indexes
        total = self._cost_tree(dst_idx).cost[src_idx]
        if total == float("inf"):
            raise self._no_route(src, dst)
        return total


#: Either routing engine; the query API is identical.
RoutingLike = typing.Union[RoutingTable, DijkstraRoutingTable]
