"""A precomputed neighbor index for static deployments.

Layouts are immutable and radios never move, so each port's audible set is
fixed for the whole run.  The historical :meth:`Medium.neighbors` rebuilt
that set with an O(n) scan per node (and answered "is dst in reach?" with
an O(degree) list search per unicast frame).  :class:`NeighborIndex`
computes every audible set in one pass: the layout's one spatial hash
(:meth:`~repro.topology.layout.Layout.pairs_within`, the same helper
``CsrGraph.from_layout`` calls) yields the pairs within the widest audible
reach — O(n · k) for k candidates per cell neighborhood instead of O(n²)
— and the propagation model's ``link_audible`` decides each direction.
The index serves

* :meth:`neighbors` — the audible set as a cached tuple, ordered by port
  registration order (byte-compatible with the historical scan, which
  iterated the registration dict);
* :meth:`is_neighbor` — O(1) membership via per-node frozensets;
* the batch-delivery arrays the medium's hot path iterates:
  :meth:`neighbor_ranks` (each audible set as dense registration-order
  ranks) plus :attr:`ports_by_rank` (rank → port object), so one frame's
  delivery is a single pass over int tuples and list indexing with no
  per-receiver dict hops; and
* the carrier-sense *audibility groups*: when audibility is symmetric,
  two ports whose closed audible sets (``N(u) | {u}``) are identical
  always observe the same number of concurrently audible transmissions
  — the sender's own half-duplex +1 is exactly the self-membership term
  — so the medium keeps one busy refcount per group instead of one per
  rank.  A single-cell clique collapses to one counter (one increment
  per frame instead of ~n); a sparse random field degenerates to
  singleton groups, which is byte-for-byte the historical per-rank
  scheme.  Asymmetric audibility (heterogeneous reaches) disables the
  merge entirely and keeps singleton groups.

The medium builds its index once, at first use (the first frame,
neighbor query or fault op); registering a port after that raises, so the
inputs (layout positions, port ranges, per-run propagation gains) never
change afterwards.  Fault injection relaxes that with *incremental epoch
repair*: :meth:`retire_node` / :meth:`restore_node` (node churn) and
:meth:`set_link` (scripted link up/down) change only the closed audible
sets of the touched nodes T (the node plus the pristine senders it
hears — its pristine neighbours when audibility is symmetric — or the
link's two ends).  The repair refilters T's neighbor tuples from a
pristine snapshot, re-keys only T's audibility groups through a
closed-set → group-id map (freed ids are reused, so ``n_groups <= n``),
and recomputes ``busy_groups`` only for T and its current neighbours —
no spatial query, propagation call or global re-partition re-runs.
Symmetry is decided once, from the pristine build: retirement and
link-downs filter both directions, so a symmetric index stays
symmetric, and a pristine-asymmetric one keeps per-rank singleton
groups for the whole run.  Group *ids* after a repair are therefore not
first-occurrence ordered, but the partition (and so every busy refcount)
equals a fresh build's, and a full retire → restore round trip restores
every neighbor structure exactly (pinned by a hypothesis property in
``tests/test_faults_churn.py``).
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.channel.propagation import PropagationModel
    from repro.radio.radio import RadioPort
    from repro.topology.layout import Layout


class NeighborIndex:
    """Audible-neighbor sets for every registered port, precomputed once.

    Parameters
    ----------
    layout:
        Node placement.
    ports:
        node id → port, in registration order (dicts preserve insertion
        order; that order defines the neighbor tuples' order).
    propagation:
        The channel's propagation model; :meth:`max_audible_m` bounds the
        spatial query radius and :meth:`link_audible` makes the final call
        per candidate.
    """

    def __init__(
        self,
        layout: "Layout",
        ports: typing.Mapping[int, "RadioPort"],
        propagation: "PropagationModel",
    ):
        order = {node: rank for rank, node in enumerate(ports)}
        max_reach = max(
            (propagation.max_audible_m(port) for port in ports.values()),
            default=0.0,
        )
        #: Rank (registration order) → port object, the medium's hot-path
        #: companion to the per-node rank tuples below.
        self.ports_by_rank: list["RadioPort"] = list(ports.values())
        # Nothing beyond the widest reach is audible, so the layout's
        # pairs within it are every candidate; the propagation model
        # decides each direction on its own (reaches may differ).
        link_audible = propagation.link_audible
        found: dict[int, list[int]] = {node: [] for node in ports}
        for a, b in layout.pairs_within(max_reach, ports):
            if link_audible(ports[a], b):
                found[a].append(b)
            if link_audible(ports[b], a):
                found[b].append(a)
        self._neighbors: dict[int, tuple[int, ...]] = {}
        self._neighbor_ranks: dict[int, tuple[int, ...]] = {}
        self._members: dict[int, frozenset[int]] = {}
        for node in ports:
            # Popped so each list is freed as its tuples are built.
            audible = found.pop(node)
            audible.sort(key=order.__getitem__)
            self._neighbors[node] = tuple(audible)
            self._neighbor_ranks[node] = tuple(order[i] for i in audible)
            self._members[node] = frozenset(audible)

        #: Node ids in registration (rank) order; epoch repair iterates
        #: this to reproduce the build's dict-insertion orders exactly.
        self._node_order: tuple[int, ...] = tuple(ports)
        self._rank_of: dict[int, int] = order
        #: Currently retired (powered-down) node ids.
        self.retired: set[int] = set()
        #: Scripted-down undirected links as ``(min_id, max_id)`` pairs.
        self._links_down: set[tuple[int, int]] = set()
        #: Pristine neighbor tuples, snapshotted lazily on the first
        #: retire/set_link call; None on the (common) no-fault path.
        self._pristine: dict[int, tuple[int, ...]] | None = None
        self._hears: typing.Mapping[int, typing.Sequence[int]] = {}
        self._busy_groups: dict[int, tuple[int, ...]] = {}
        #: Global re-partitions run (one per construction; see
        #: :meth:`_rebuild_groups`).
        self.global_partitions = 0
        self._rebuild_groups()

    def _rebuild_groups(self) -> None:
        """Partition carrier-sense audibility groups from ``_members``.

        Merging is only sound when audibility is symmetric: the per-rank
        busy count equals |{active t : t.sender in N(u) | {u}}| (the
        union term is the sender's own half-duplex increment), and with
        u in N(s) <=> s in N(u) that count depends on u only through the
        closed set N(u) | {u} — ranks sharing it can share one counter.
        Any asymmetric link breaks the equivalence, so heterogeneous-reach
        deployments fall back to one singleton group per rank, which
        reproduces the historical per-rank refcounts exactly.

        Runs once, at construction; epoch repair re-keys only the touched
        nodes (:meth:`_repair_groups`).  ``global_partitions`` counts the
        calls, so a churn run can show that no repair fell back to it.
        """
        self.global_partitions += 1
        members = self._members
        node_order = self._node_order
        #: Decided from the pristine sets and kept for the whole run.
        self._symmetric = all(
            node in members[other]
            for node, audible in members.items()
            for other in audible
        )
        #: Closed set → group id, id → closed set (None = free id), id →
        #: member count, and the free ids awaiting reuse.  Only the
        #: symmetric merge keys groups; singleton groups need none of it.
        self._group_ids: dict[frozenset[int], int] = {}
        self._group_key: list[frozenset[int] | None] = []
        self._group_size: list[int] = []
        self._free_ids: list[int] = []
        if self._symmetric:
            group_of = [
                self._join_group(frozenset(members[node] | {node}))
                for node in node_order
            ]
            self.n_groups = len(self._group_key)
        else:
            group_of = list(range(len(node_order)))
            self.n_groups = len(group_of)
        #: Rank → audibility-group id (carrier-sense reads index this).
        self.group_of_rank: list[int] = group_of
        self._cover(node_order)

    def _join_group(self, key: frozenset[int]) -> int:
        """Add one member to ``key``'s group, allocating an id if new."""
        group_ids = self._group_ids
        group = group_ids.get(key)
        if group is None:
            if self._free_ids:
                group = self._free_ids.pop()
                self._group_key[group] = key
            else:
                group = len(self._group_key)
                self._group_key.append(key)
                self._group_size.append(0)
            group_ids[key] = group
        self._group_size[group] += 1
        return group

    def _leave_group(self, group: int) -> None:
        """Drop one member from ``group``, freeing its id when empty."""
        sizes = self._group_size
        sizes[group] -= 1
        if not sizes[group]:
            del self._group_ids[self._group_key[group]]
            self._group_key[group] = None
            self._free_ids.append(group)

    def _cover(self, nodes: typing.Iterable[int]) -> None:
        """Recompute ``nodes``' :meth:`busy_groups` tuples."""
        busy_groups = self._busy_groups
        neighbor_ranks = self._neighbor_ranks
        rank_of = self._rank_of
        if not self._symmetric:
            for node in nodes:
                busy_groups[node] = (rank_of[node],) + neighbor_ranks[node]
            return
        group_of = self.group_of_rank
        for node in nodes:
            # Distinct groups covering the closed audible set; a group
            # intersecting it is wholly inside it (same closed sets), so
            # each member port's count moves by exactly one when the
            # group's counter does.
            busy_groups[node] = tuple(
                dict.fromkeys(
                    [group_of[rank_of[node]]]
                    + [group_of[r] for r in neighbor_ranks[node]]
                )
            )

    def _repair_groups(self, touched: typing.Sequence[int]) -> None:
        """Re-key the ``touched`` nodes' groups after a refilter.

        Only the touched nodes' closed sets changed, so only they move
        between groups; a node's cover changes only if its own closed set
        did or one of its members moved, i.e. for the touched nodes and
        (by symmetry) their current neighbours.
        """
        if not self._symmetric:
            self._cover(touched)
            return
        group_of = self.group_of_rank
        rank_of = self._rank_of
        members = self._members
        # Leave first, then join: a group emptied by this repair frees
        # its id for reuse, which keeps every live id below n.
        for node in touched:
            self._leave_group(group_of[rank_of[node]])
        for node in touched:
            group_of[rank_of[node]] = self._join_group(
                frozenset(members[node] | {node})
            )
        self.n_groups = len(self._group_key)
        affected = dict.fromkeys(touched)
        for node in touched:
            affected.update(dict.fromkeys(self._neighbors[node]))
        self._cover(affected)

    # -- epoch repair (fault injection) --------------------------------------

    def _ensure_pristine(self) -> dict[int, tuple[int, ...]]:
        pristine = self._pristine
        if pristine is None:
            # The values are the build's immutable tuples, so the snapshot
            # is one dict copy — O(n) pointers, taken once per run at most.
            pristine = self._pristine = dict(self._neighbors)
            # node → the pristine senders it hears, i.e. the nodes whose
            # audible sets (re)gain or lose it when it dies or revives.
            # Symmetric audibility makes that its own audible set.
            if self._symmetric:
                self._hears = pristine
            else:
                hears: dict[int, list[int]] = {node: [] for node in pristine}
                for node, audible in pristine.items():
                    for other in audible:
                        hears[other].append(node)
                self._hears = hears
        return pristine

    def _link_up(self, a: int, b: int) -> bool:
        links_down = self._links_down
        if not links_down:
            return True
        return ((a, b) if a < b else (b, a)) not in links_down

    def _refilter(self, nodes: typing.Iterable[int]) -> list[int]:
        """Recompute ``nodes``' neighbor structures from the pristine
        snapshot minus retired nodes and downed links.

        Filtering the pristine tuple preserves registration order, so a
        node whose retirement is later undone reappears at exactly its
        original position — the invariant the retire → restore ==
        fresh-build property rests on.  Returns the refiltered nodes in
        rank order, for :meth:`_repair_groups`.
        """
        pristine = self._ensure_pristine()
        retired = self.retired
        rank_of = self._rank_of
        ordered = sorted(nodes, key=rank_of.__getitem__)
        for node in ordered:
            if node in retired:
                # A retired node is deaf as well as mute — emptying its
                # own set keeps audibility symmetric, so the group merge
                # stays in force for the surviving fleet.
                alive: tuple[int, ...] = ()
            else:
                alive = tuple(
                    other
                    for other in pristine[node]
                    if other not in retired and self._link_up(node, other)
                )
            self._neighbors[node] = alive
            self._neighbor_ranks[node] = tuple(rank_of[i] for i in alive)
            self._members[node] = frozenset(alive)
        return ordered

    def retire_node(self, node_id: int) -> None:
        """Take ``node_id`` off the air: scrub it from every audible set.

        Incremental: only the node and the pristine senders it hears
        (the nodes whose audible sets hold it) are refiltered and
        re-keyed into audibility groups — no spatial query, propagation
        call or global re-partition re-runs.  The medium (which owns the
        busy refcounts) replays them against the repaired groups.

        Raises
        ------
        ValueError
            If the node is already retired.
        KeyError
            If the node was never indexed.
        """
        if node_id in self.retired:
            raise ValueError(f"node {node_id} is already retired")
        self._ensure_pristine()
        touched = self._hears[node_id]  # KeyError for unknown nodes
        self.retired.add(node_id)
        self._repair_groups(self._refilter((node_id, *touched)))

    def restore_node(self, node_id: int) -> None:
        """Put a retired ``node_id`` back on the air (inverse of
        :meth:`retire_node`).

        Raises
        ------
        ValueError
            If the node is not currently retired.
        """
        if node_id not in self.retired:
            raise ValueError(f"node {node_id} is not retired")
        self.retired.discard(node_id)
        self._repair_groups(
            self._refilter((node_id, *self._hears[node_id]))
        )

    def set_link(self, a: int, b: int, up: bool) -> None:
        """Force the undirected ``a`` ↔ ``b`` link down (or back up).

        Muting a pair that was never audible is a harmless no-op on the
        neighbor sets; re-raising a link that is not down is a
        :class:`ValueError` (scripted fault plans should not double-fire).
        """
        if a == b:
            raise ValueError(f"link endpoints must differ, got {a} twice")
        pristine = self._ensure_pristine()
        if a not in pristine or b not in pristine:
            raise KeyError(a if a not in pristine else b)
        key = (a, b) if a < b else (b, a)
        if up:
            if key not in self._links_down:
                raise ValueError(f"link {key} is not down")
            self._links_down.discard(key)
        else:
            if key in self._links_down:
                raise ValueError(f"link {key} is already down")
            self._links_down.add(key)
        self._repair_groups(self._refilter((a, b)))

    def neighbors(self, node_id: int) -> tuple[int, ...]:
        """Audible nodes for ``node_id``, in registration order."""
        return self._neighbors[node_id]

    def neighbor_ranks(self, node_id: int) -> tuple[int, ...]:
        """Audible nodes as :attr:`ports_by_rank` ranks (ascending, which
        is registration order — the same order :meth:`neighbors` uses)."""
        return self._neighbor_ranks[node_id]

    def is_neighbor(self, sender_id: int, listener_id: int) -> bool:
        """Whether ``listener_id`` can hear ``sender_id`` (O(1))."""
        return listener_id in self._members[sender_id]

    def busy_groups(self, node_id: int) -> tuple[int, ...]:
        """Audibility-group ids a transmission from ``node_id`` makes busy.

        Covers the node's closed audible set (itself plus every audible
        rank): incrementing each listed group once raises every covered
        port's effective busy count by exactly one, matching the
        historical per-rank increments (sender's own included).
        """
        return self._busy_groups[node_id]

    def __len__(self) -> int:
        return len(self.ports_by_rank)
