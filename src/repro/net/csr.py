"""Compact CSR-style adjacency for the routing hot path.

The routing engines only need "who are node X's neighbors, in ascending id
order" — a question networkx answers through layers of dict-of-dicts.  A
:class:`CsrGraph` flattens the whole adjacency into two int lists (the
classic compressed-sparse-row layout): ``indices[indptr[i]:indptr[i + 1]]``
are the neighbor *indexes* of the node with index ``i``, sorted ascending.
Node ids are mapped onto ``0..n-1`` in ascending id order, so index order
and id order agree — a BFS over indexes breaks ties exactly like one over
sorted ids.

Builders cover the two places routing graphs come from:

* :meth:`CsrGraph.from_layout` — a uniform radio range over a
  :class:`~repro.topology.layout.Layout`: the pairs
  :meth:`~repro.topology.layout.Layout.pairs_within` finds with the code
  base's one spatial hash (the medium's neighbor index takes its
  candidates from the same helper).  Edge-for-edge identical to an
  O(n²) ``in_range`` scan (same tolerance).
* :meth:`CsrGraph.from_links` — an explicit link list, e.g. the
  bidirectionally-audible links a :class:`~repro.channel.medium.Medium`'s
  neighbor index reports for a shadowed channel.
"""

from __future__ import annotations

import bisect
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.topology.layout import Layout


class CsrGraph:
    """An immutable undirected graph over int node ids, stored as CSR arrays.

    Attributes
    ----------
    ids:
        All node ids, ascending; ``ids[i]`` is the id of index ``i``.
    indptr / indices:
        CSR layout in *index* space; every row is sorted ascending.
    """

    __slots__ = ("ids", "indptr", "indices", "_index_of")

    def __init__(
        self,
        ids: typing.Sequence[int],
        neighbors_by_id: typing.Mapping[int, typing.Sequence[int]],
    ):
        self.ids: tuple[int, ...] = tuple(sorted(ids))
        self._index_of: dict[int, int] = {
            node: i for i, node in enumerate(self.ids)
        }
        index_of = self._index_of
        indptr = [0]
        indices: list[int] = []
        for node in self.ids:
            row = sorted(index_of[other] for other in neighbors_by_id.get(node, ()))
            indices.extend(row)
            indptr.append(len(indices))
        self.indptr: list[int] = indptr
        self.indices: list[int] = indices

    # -- builders --------------------------------------------------------

    @classmethod
    def from_layout(cls, layout: "Layout", range_m: float) -> "CsrGraph":
        """Connectivity at a uniform ``range_m``: the pairs
        :meth:`Layout.pairs_within` finds, so edge-for-edge identical to
        an O(n²) ``in_range`` scan without its cost."""
        return cls.from_links(layout.node_ids, layout.pairs_within(range_m))

    @classmethod
    def from_links(
        cls,
        node_ids: typing.Iterable[int],
        links: typing.Iterable[tuple[int, int]],
    ) -> "CsrGraph":
        """Graph over ``node_ids`` with the given undirected ``links``."""
        adjacency: dict[int, list[int]] = {node: [] for node in node_ids}
        for a, b in links:
            adjacency[a].append(b)
            adjacency[b].append(a)
        return cls(tuple(adjacency), adjacency)

    # -- queries ---------------------------------------------------------

    @property
    def n(self) -> int:
        """Node count."""
        return len(self.ids)

    @property
    def n_edges(self) -> int:
        """Undirected edge count."""
        return len(self.indices) // 2

    @property
    def edges(self) -> list[tuple[int, int]]:
        """All undirected edges as ``(a, b)`` id pairs with ``a < b``.

        Property (not a method) to mirror ``networkx.Graph.edges``, so
        graph-shaped consumers can iterate either representation.
        """
        ids, indptr, indices = self.ids, self.indptr, self.indices
        return [
            (ids[i], ids[j])
            for i in range(len(ids))
            for j in indices[indptr[i] : indptr[i + 1]]
            if i < j
        ]

    def index(self, node_id: int) -> int:
        """The CSR index of ``node_id`` (KeyError if absent)."""
        return self._index_of[node_id]

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._index_of

    def __len__(self) -> int:
        return len(self.ids)

    def has_edge(self, a: int, b: int) -> bool:
        """Whether ``a`` and ``b`` are directly linked (O(log degree))."""
        ia = self._index_of.get(a)
        ib = self._index_of.get(b)
        if ia is None or ib is None:
            return False
        lo, hi = self.indptr[ia], self.indptr[ia + 1]
        j = bisect.bisect_left(self.indices, ib, lo, hi)
        return j < hi and self.indices[j] == ib
