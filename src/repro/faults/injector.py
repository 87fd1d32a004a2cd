"""The fault injector: executes a :class:`~repro.faults.plan.FaultPlan`.

One :class:`FaultInjector` per faulted run.  At construction it schedules
every scripted event, arms the random-churn Poisson clock and the
battery-drain poll, and from then on drives the whole kill/revive
machinery the engine layers expose:

* **Kill** — stop the node's traffic source, power down its MACs
  (cancelling in-flight contention timers and drop-counting queued
  frames), power down its radios, retire it from every
  :class:`~repro.channel.medium.Medium` (aborting its in-flight frames
  and repairing busy refcounts), then bump the topology epoch and
  invalidate every routing table's memoized trees against the full dead
  set.
* **Revive** — the exact inverse: restore on every medium, power the
  radios and MACs back up, and invalidate routing again.  Traffic
  sources are *not* restarted — a rebooted mote has an empty send queue
  and no application state, so a revived node relays but does not
  originate (documented, deliberate).

The ordering inside a kill matters: MACs are stopped while their radios
are still up (so timer teardown never observes a half-dead radio), radios
before the medium retire (so the port stops listening before the index
repair reads listening state), and routing last.  The partition check
runs after routing, against the epoch's full dead set: it asks each
table which live senders cannot reach the sink, a query that grows no
routing tree and draws no tie-break, so it cannot move a route.  Around
all of it — and around every revive, link change and cost refresh — BCP
agents that pull their CBR packets on demand first buffer every packet
due so far on the old routes, and re-aim their pending event afterwards.

Everything here is fault-path-only.  The zero plan never constructs an
injector, so no-fault runs execute none of this code and the pinned
golden digests cannot move.
"""

from __future__ import annotations

import contextlib
import typing

from repro.energy.battery import Battery
from repro.energy.residual import live_consumed_j
from repro.faults.lifetime import LifetimeMonitor
from repro.faults.plan import FaultPlan

if typing.TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.models.scenario import ScenarioConfig, _BuiltNetwork
    from repro.sim.simulator import Simulator

#: Death causes recorded by the monitor.
CAUSE_SCRIPTED = "scripted"
CAUSE_CHURN = "churn"
CAUSE_BATTERY = "battery"


class FaultInjector:
    """Wires a :class:`FaultPlan` into a built network.

    Parameters
    ----------
    sim / config / built:
        The simulator, the scenario cell, and the network
        :func:`~repro.models.scenario.build_network` produced (the
        injector reads its radios, MACs, mediums, routing tables,
        senders, sources, meter bank and collector).
    plan:
        The non-trivial fault schedule (``plan.is_zero`` plans should
        never reach the injector — the scenario layer skips them).
    """

    def __init__(
        self,
        sim: "Simulator",
        config: "ScenarioConfig",
        built: "_BuiltNetwork",
        plan: FaultPlan,
    ):
        if plan.is_zero:
            raise ValueError(
                "a zero FaultPlan must not build an injector; the scenario "
                "layer skips inert plans to keep the no-fault path pristine"
            )
        self.sim = sim
        self.config = config
        self.built = built
        self.plan = plan
        self.monitor = LifetimeMonitor()
        #: Currently-dead node ids (battery deaths are permanent; churn
        #: deaths recover when the plan gives a mean downtime).
        self.dead: set[int] = set()
        #: Monotonic topology epoch, bumped on every kill/revive/link
        #: flip and handed to the routing tables' ``invalidate_epoch``.
        self.epoch = 0
        self._source_by_node = {
            source.node_id: source for source in built.sources
        }
        self._rng = sim.rng.stream("faults.schedule")
        self._schedule_scripted()
        self._arm_churn()
        self._arm_batteries()

    # -- scheduling ------------------------------------------------------

    def _schedule_scripted(self) -> None:
        for time_s, node in self.plan.crashes:
            self.sim.call_at(time_s, self._scripted_kill, node)
        for time_s, node in self.plan.recoveries:
            self.sim.call_at(time_s, self._scripted_revive, node)
        for time_s, a, b in self.plan.links_down:
            self.sim.call_at(time_s, self._set_link, a, b, False)
        for time_s, a, b in self.plan.links_up:
            self.sim.call_at(time_s, self._set_link, a, b, True)

    def _arm_churn(self) -> None:
        if self.plan.crash_rate_per_node_s > 0.0:
            self._schedule_next_crash()

    def _schedule_next_crash(self) -> None:
        # Fleet-level Poisson process: superposing n per-node processes
        # of rate λ is one process of rate nλ with a uniform victim.
        rate = self.plan.crash_rate_per_node_s * self.config.n_nodes
        self.sim.call_later(
            self._rng.expovariate(rate), self._churn_fire
        )

    def _churn_fire(self) -> None:
        candidates = [
            node
            for node in range(self.config.n_nodes)
            if node not in self.dead
            and not (self.plan.protect_sink and node == self.config.sink)
        ]
        if candidates:
            victim = self._rng.choice(candidates)
            self._kill(victim, CAUSE_CHURN)
            if self.plan.mean_downtime_s > 0.0:
                downtime = self._rng.expovariate(
                    1.0 / self.plan.mean_downtime_s
                )
                self.sim.call_later(downtime, self._churn_revive, victim)
        self._schedule_next_crash()

    def _churn_revive(self, node: int) -> None:
        # The node is still dead unless a scripted recovery got there
        # first; either way a second revival is a no-op, not an error —
        # churn schedules are advisory where scripts are exact.
        if node in self.dead:
            self._revive(node)

    def _arm_batteries(self) -> None:
        self._batteries: dict[int, Battery] = {}
        plan = self.plan
        if plan.battery_capacity_j is not None:
            for node in range(self.config.n_nodes):
                if plan.protect_sink and node == self.config.sink:
                    continue
                self._batteries[node] = Battery(plan.battery_capacity_j)
        for node, capacity in plan.battery_overrides:
            self._batteries[node] = Battery(capacity)
        #: Joules already billed against each battery (the meter bank's
        #: columns are cumulative; the poll drains only the delta).
        self._billed = {node: 0.0 for node in self._batteries}
        if self._batteries:
            self.sim.call_later(plan.battery_poll_s, self._poll_batteries)

    def _poll_batteries(self) -> None:
        bank = self.built.meter_bank
        assert bank is not None
        high_radios = self.built.high_radios
        pending = False
        for node in sorted(self._batteries):
            if node in self.dead:
                continue
            pending = True
            # live_consumed_j flushes the node's open idle/listen
            # integrator segment first, so a node that only listens still
            # spends its reservoir — the same flush-then-read the
            # residual-energy routing policy uses.
            total = live_consumed_j(bank, high_radios, node)
            delta = total - self._billed[node]
            self._billed[node] = total
            if delta > 0.0 and self._batteries[node].try_drain(delta):
                self._kill(node, CAUSE_BATTERY)
        if pending:
            # Every poll just refreshed the meters; fold the new residual
            # levels into any dynamic-cost routes so load migrates off
            # depleting relays *before* they die (no epoch bump — the
            # topology is unchanged).
            self._refresh_dynamic_costs()
            self.sim.call_later(self.plan.battery_poll_s, self._poll_batteries)

    def _refresh_dynamic_costs(self) -> None:
        with self._rerouting():
            for table in self.built.route_tables.values():
                refresh = getattr(table, "refresh_costs", None)
                if refresh is not None:
                    refresh()

    @contextlib.contextmanager
    def _rerouting(self) -> typing.Iterator[None]:
        """Around a change of routes or of a source's ``stop_s``: BCP
        agents that pull their packets on demand first buffer every packet
        due before now on the old routes, then re-aim their pending event."""
        fed_agents = self.built.fed_agents
        for agent in fed_agents:
            agent.catch_up()
        yield
        for agent in fed_agents:
            agent.rearm()

    # -- kill / revive ---------------------------------------------------

    def _scripted_kill(self, node: int) -> None:
        if node in self.dead:
            raise ValueError(
                f"scripted crash of node {node} at t={self.sim.now}: "
                "node is already dead"
            )
        self._kill(node, CAUSE_SCRIPTED)

    def _scripted_revive(self, node: int) -> None:
        if node not in self.dead:
            raise ValueError(
                f"scripted recovery of node {node} at t={self.sim.now}: "
                "node is not dead"
            )
        self._revive(node)

    def _kill(self, node: int, cause: str) -> None:
        with self._rerouting():
            built = self.built
            collector = built.collector
            delivered = float(collector.bits_delivered) if collector else 0.0
            self.monitor.note_death(self.sim.now, node, cause, delivered)
            self.dead.add(node)
            source = self._source_by_node.get(node)
            # A source stops for good at its first death: a revived node
            # never originates again, so a second kill keeps the first
            # stop time (which a pulling agent reads back).
            if source is not None and (
                source.stop_s is None or self.sim.now < source.stop_s
            ):
                source.stop_s = self.sim.now
            if built.low_macs:
                built.low_macs[node].power_down()
            if built.high_macs:
                built.high_macs[node].power_down()
            if built.low_radios:
                built.low_radios[node].power_down()
            if built.high_radios:
                built.high_radios[node].power_down()
            for medium in built.mediums:
                medium.retire_node(node)
            self._invalidate_routing()

    def _revive(self, node: int) -> None:
        if node not in self.dead:
            raise ValueError(f"cannot revive node {node}: it is not dead")
        with self._rerouting():
            self.dead.discard(node)
            built = self.built
            for medium in built.mediums:
                medium.restore_node(node)
            if built.low_radios:
                built.low_radios[node].power_up()
            if built.high_radios:
                built.high_radios[node].power_up()
                if self.config.model == "wifi":
                    # The wifi model's radios are woken once at build and
                    # never managed again; a revived node must rejoin them.
                    built.high_radios[node].wake()
            if built.low_macs:
                built.low_macs[node].power_up()
            if built.high_macs:
                built.high_macs[node].power_up()
            self.monitor.note_recovery()
            self._invalidate_routing()
            if self.config.model == "dual":
                # On the revived routes: a session the crash stranded
                # mid-wake restarts.
                built.agents[node].revive()

    def _set_link(self, a: int, b: int, up: bool) -> None:
        with self._rerouting():
            for medium in self.built.mediums:
                medium.set_link(a, b, up=up)
            self.monitor.note_link_change()
            self._invalidate_routing()

    def _invalidate_routing(self) -> None:
        self.epoch += 1
        for table in self.built.route_tables.values():
            table.invalidate_epoch(self.epoch, self.dead)
        self.monitor.note_epoch(self._is_partitioned())

    def _is_partitioned(self) -> bool:
        """Whether some live sender cannot reach the sink on at least one
        tier: one tier cut off is enough, even if another still reaches.

        A dead sink partitions every live sender by definition.  Dead
        senders are skipped — a node that cannot originate is not
        partitioned, just gone.
        """
        sink = self.config.sink
        live = [sender for sender in self.built.senders if sender not in self.dead]
        return any(
            table.unreachable(live, sink)
            for table in self.built.route_tables.values()
        )

    # -- results ---------------------------------------------------------

    def counters(self) -> dict[str, float]:
        """The run's ``faults.*`` counters (monitor metrics plus the
        MAC-level drop tally the power-down path accumulates)."""
        out = self.monitor.counters()
        drops = 0
        for mac in self.built.low_macs + self.built.high_macs:
            drops += mac.power_down_drops
        out["faults.power_down_drops"] = float(drops)
        # Packets refused at ingestion because no route survived the
        # epoch (ForwardingAgent drops surface as ``fwd.unroutable``;
        # BCP's only exist on the fault path, so they live here).
        unroutable = 0
        for agent in self.built.agents:
            stats = getattr(agent, "stats", None)
            if stats is not None:
                unroutable += getattr(stats, "packets_unroutable", 0)
        out["faults.unroutable_drops"] = float(unroutable)
        out["faults.currently_dead"] = float(len(self.dead))
        return out
