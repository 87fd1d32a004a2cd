"""Energy accounting: categorized meters and power-over-time integrators.

Every node owns a :class:`NodeMeter`; radios, MACs and BCP charge energy
into named categories (``"tx"``, ``"rx"``, ``"idle"``, ``"wakeup"``,
``"overhear"``...).  The evaluation models differ *only* in which categories
they charge — e.g. the paper's "Sensor-ideal" baseline ignores idle and
overhearing — so keeping categories separate lets one simulation produce
both ideal and full accountings.

All charges land in one :class:`MeterBank`: struct-of-arrays accounting
for a whole fleet, one ``(component, category) → per-node float column``
table instead of n per-node dicts.  :meth:`MeterBank.meter` hands out the
per-node :class:`NodeMeter` views radios charge and read, while
fleet-wide reductions (:meth:`MeterBank.fleet_total`) read whole columns
without touching n objects.  This is what lets a 10k-node scenario
allocate two float columns per charge category rather than ten thousand
dictionaries.  A hand-built stack of a few nodes (a unit test) uses the
same bank: ``MeterBank(n).meter(i)``.
"""

from __future__ import annotations

import collections
import typing

from repro.stats.summation import ltr_sum

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.simulator import Simulator

#: Canonical charge categories used across the library.
CATEGORY_TX = "tx"
CATEGORY_RX = "rx"
CATEGORY_IDLE = "idle"
CATEGORY_SLEEP = "sleep"
CATEGORY_WAKEUP = "wakeup"
CATEGORY_OVERHEAR = "overhear"


class MeterBank:
    """Struct-of-arrays energy accounting for a fleet of ``n_nodes`` nodes.

    Storage is one float column per ``(component, category)`` pair plus
    one int column recording when each node first charged that pair —
    columns materialize lazily on first charge — so the per-node cost is
    a couple of array cells per category actually used, not a dict per
    node.

    The first-charge sequence column exists for *bit-reproducibility*:
    float addition is not associative, so a node's total must sum its
    keys in one fixed order.  Reads through :class:`NodeMeter` sum them
    in the order the node first charged each key — the iteration order
    of a plain per-node dict fed the same charges — whichever path
    (:meth:`charge` or :meth:`apply_fanout`) made each charge.  The
    pinned golden digests depend on it.

    Parameters
    ----------
    n_nodes:
        Fleet size; nodes are indexed ``0..n_nodes - 1``.
    name_prefix:
        Per-node view names are ``f"{name_prefix}{index}"`` (``node14``
        in reports).
    """

    def __init__(self, n_nodes: int, name_prefix: str = "node"):
        if n_nodes < 1:
            raise ValueError("a meter bank needs at least one node")
        self.n_nodes = n_nodes
        self.name_prefix = name_prefix
        self._energy: dict[tuple[str, str], list[float]] = {}
        #: Per-key int column: global sequence number of the node's first
        #: charge of that key (-1 = never charged).  Sorting a node's
        #: keys by it gives the order the node first charged them.
        self._first_seq: dict[tuple[str, str], list[int]] = {}
        self._next_seq = 0
        self._by_component: dict[
            str, dict[str, tuple[list[float], list[int]]]
        ] = {}

    def charge(
        self, index: int, joules: float, component: str, category: str
    ) -> None:
        """Add ``joules`` for node ``index`` under ``(component, category)``.

        Raises
        ------
        ValueError
            If ``joules`` is negative — energy only flows out of batteries.
        """
        if joules < 0:
            raise ValueError(
                f"negative energy charge {joules!r} for {component}/{category}"
            )
        key = (component, category)
        column = self._energy.get(key)
        if column is None:
            column = self._energy[key] = [0.0] * self.n_nodes
            seq = self._first_seq[key] = [-1] * self.n_nodes
        else:
            seq = self._first_seq[key]
        if seq[index] < 0:
            seq[index] = self._next_seq
            self._next_seq += 1
        column[index] += joules

    def _column_pair(
        self, component: str, category: str
    ) -> tuple[list[float], list[int]]:
        """The (values, first-charge-seq) columns for one key, creating
        them on first use exactly like :meth:`charge` does."""
        key = (component, category)
        column = self._energy.get(key)
        if column is None:
            column = self._energy[key] = [0.0] * self.n_nodes
            seq = self._first_seq[key] = [-1] * self.n_nodes
        else:
            seq = self._first_seq[key]
        return column, seq

    def component_columns(
        self, component: str
    ) -> dict[str, tuple[list[float], list[int]]]:
        """A ``category -> (values, first-charge-seq)`` column cache for
        ``component``: one dict per component, shared by every caller,
        which fills it from :meth:`_column_pair`.  Columns never move, so
        an entry stays valid for the bank's lifetime."""
        return self._by_component.setdefault(component, {})

    def fanout_plan(
        self, component: str, charges: typing.Sequence[tuple[float, str]]
    ) -> list[tuple[float, list[float], list[int]]]:
        """Resolve one ``(joules, category)`` charge tuple to a column plan.

        Charges are validated here, once per plan; the returned
        ``(joules, values column, first-charge-seq column)`` triples alias
        the bank's live columns and stay valid for the bank's lifetime, so
        a caller that memoizes plans per frame shape (the medium) resolves
        each shape once and replays it through :meth:`apply_fanout`.

        Raises
        ------
        ValueError
            If any charge is negative (same contract as :meth:`charge`).
        """
        for joules, category in charges:
            if joules < 0:
                raise ValueError(
                    f"negative energy charge {joules!r} for "
                    f"{component}/{category}"
                )
        return [
            (joules, *self._column_pair(component, category))
            for joules, category in charges
        ]

    def apply_fanout(
        self,
        pairs: typing.Iterable[
            tuple[int, typing.Sequence[tuple[float, list[float], list[int]]]]
        ],
    ) -> None:
        """Charge many nodes for one frame in a single batched pass.

        Each ``(row, plan)`` pair charges node ``row`` the
        :meth:`fanout_plan` triples of ``plan``, in order.  Equivalent,
        charge for charge, to calling :meth:`charge` per node and per
        triple — the same first-charge sequence stamps, the same float
        accumulation per cell — with the column lookups, validation and
        the global sequence counter hoisted out of the per-receiver loop.
        """
        next_seq = self._next_seq
        for row, plan in pairs:
            for joules, column, seq in plan:
                if seq[row] < 0:
                    seq[row] = next_seq
                    next_seq += 1
                column[row] += joules
        self._next_seq = next_seq

    def meter(self, index: int) -> "NodeMeter":
        """The :class:`NodeMeter` view of node ``index``."""
        if not 0 <= index < self.n_nodes:
            raise IndexError(
                f"node index {index} outside fleet of {self.n_nodes}"
            )
        return NodeMeter(self, index)

    def node_items(
        self, index: int
    ) -> list[tuple[tuple[str, str], float]]:
        """One node's ``((component, category), joules)`` pairs.

        Ordered by the node's first-charge sequence — the iteration order
        of a plain dict fed the node's charges in charge order — including
        keys whose accumulated charge is 0.0.
        """
        items = [
            (seq[index], key)
            for key, seq in self._first_seq.items()
            if seq[index] >= 0
        ]
        items.sort()
        return [(key, self._energy[key][index]) for _seq, key in items]

    def total_for(
        self,
        index: int,
        component: str | None = None,
        categories: typing.Collection[str] | None = None,
    ) -> float:
        """One node's total joules, optionally filtered by component
        and/or categories.

        Terms accumulate in the node's first-charge order (see
        :meth:`node_items`), so the float result does not depend on which
        charging path filled the columns.
        """
        total = 0.0
        for (comp, cat), joules in self.node_items(index):
            if component is not None and comp != component:
                continue
            if categories is not None and cat not in categories:
                continue
            total += joules
        return total

    def fleet_total(
        self,
        component: str | None = None,
        categories: typing.Collection[str] | None = None,
    ) -> float:
        """Joules summed over the whole fleet.

        Column-major (fast whole-array reads); use per-node
        :meth:`total_for` accumulation where bit-compatibility with a
        node-by-node sum matters.
        """
        total = 0.0
        for (comp, cat), column in self._energy.items():
            if component is not None and comp != component:
                continue
            if categories is not None and cat not in categories:
                continue
            total += ltr_sum(column)
        return total

    def components(self) -> set[str]:
        """Every component name the bank has charges for."""
        return {comp for comp, _cat in self._energy}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<MeterBank nodes={self.n_nodes} "
            f"columns={len(self._energy)} total={self.fleet_total():.6f} J>"
        )


class NodeMeter:
    """One node's view of a :class:`MeterBank`.

    The charging/reading interface radios and integrators use
    (``charge``/``total``/``breakdown``/``by_category``/``name``), storing
    nothing per node beyond the bank reference and the index.
    """

    __slots__ = ("bank", "index")

    def __init__(self, bank: MeterBank, index: int):
        self.bank = bank
        self.index = index

    @property
    def name(self) -> str:
        """Report label, e.g. ``node14``."""
        return f"{self.bank.name_prefix}{self.index}"

    def charge(self, joules: float, component: str, category: str) -> None:
        """Add ``joules`` under ``(component, category)`` for this node."""
        self.bank.charge(self.index, joules, component, category)

    def total(
        self,
        component: str | None = None,
        categories: typing.Collection[str] | None = None,
    ) -> float:
        """Total joules for this node, optionally filtered."""
        return self.bank.total_for(self.index, component, categories)

    def breakdown(self) -> dict[tuple[str, str], float]:
        """This node's raw (component, category) → joules mapping.

        Keys come in the order this node first charged them (see
        :meth:`MeterBank.node_items`).
        """
        return dict(self.bank.node_items(self.index))

    def by_category(self, component: str | None = None) -> dict[str, float]:
        """Joules per category (summed over components unless one given)."""
        out: dict[str, float] = collections.defaultdict(float)
        for (comp, cat), joules in self.bank.node_items(self.index):
            if component is None or comp == component:
                out[cat] += joules
        return dict(out)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<NodeMeter {self.name!r} total={self.total():.6f} J>"


class PowerIntegrator:
    """Integrates a piecewise-constant power draw into a :class:`NodeMeter`.

    A radio sets its draw with :meth:`set_power` at every state change; the
    integrator charges ``power × elapsed`` for the segment just ended.  Call
    :meth:`flush` (for example at the end of a run) to account for the final
    open segment.

    Parameters
    ----------
    sim:
        Supplies the clock.
    meter:
        Destination for charges.
    component:
        Component label for all charges from this integrator.
    """

    def __init__(self, sim: "Simulator", meter: NodeMeter, component: str):
        self.sim = sim
        self.meter = meter
        self.component = component
        self._since = sim.now
        self._power_w = 0.0
        self._category = CATEGORY_IDLE
        self._row = meter.index
        self._columns = meter.bank.component_columns(component)

    @property
    def power_w(self) -> float:
        """Current power draw in watts."""
        return self._power_w

    def set_power(self, watts: float, category: str) -> None:
        """Close the current segment and start drawing ``watts`` under ``category``."""
        if watts < 0:
            raise ValueError(f"negative power {watts!r}")
        # Radios call this at every state change, so the segment is closed
        # here rather than through flush -> NodeMeter.charge ->
        # MeterBank.charge.  A node's first charge of a category still goes
        # through the bank, which stamps the node's first-charge sequence;
        # every later one is a single in-place add of the same
        # power * elapsed (both factors positive, so the bank's sign check
        # is vacuous).
        now = self.sim._now
        elapsed = now - self._since
        power = self._power_w
        if elapsed > 0 and power > 0:
            row = self._row
            columns = self._columns.get(self._category)
            if columns is not None and columns[1][row] >= 0:
                columns[0][row] += power * elapsed
            else:
                self._charge_first(power * elapsed)
        self._since = now
        self._power_w = watts
        self._category = category

    def _charge_first(self, joules: float) -> None:
        category = self._category
        meter = self.meter
        meter.charge(joules, self.component, category)
        self._columns[category] = meter.bank._column_pair(self.component, category)

    def flush(self) -> None:
        """Charge the energy of the open segment up to the current time."""
        self.set_power(self._power_w, self._category)
