"""The declared benchmark suite ``repro bench`` runs.

Each :class:`BenchCase` is a named, deterministic workload with an untimed
``setup`` and a timed ``run`` returning ops counters.  Cases are tagged
into suites: ``smoke`` runs on every change (routing build at 1k/5k
nodes, the routing policies at 1k, one end-to-end fig-scale cell, a
1k-node composed scenario build and the 1k-node churn round); ``full`` is
a superset adding the 35-sender contention cell and the 10k-node scale
cases (lazy routing, the composed-scenario build and a full collection
round at 10k nodes — nightly material, too slow for every change).

:data:`CEILINGS` are the gates: each caps one case's metric, either its
wall (acceptance budgets generous enough for a loaded CI runner) or an
ops counter (deterministic work, which cannot flake).
"""

from __future__ import annotations

import dataclasses
import random
import typing

#: Suite names, smallest first; every suite includes the ones before it.
SUITES = ("smoke", "full")

#: 1k-node routing benchmark geometry: ~6.6 mean degree at range 60 m.
_FIELD_1K = 1265.0
_FIELD_5K = 2830.0
_FIELD_10K = 4000.0
_RANGE_M = 60.0
#: Composed-scenario field widths: ~10 mean sensor-tier degree (range
#: 40 m), scaled as sqrt(n) to keep density constant.
_COMPOSE_FIELD_1K = 700.0
_COMPOSE_FIELD_10K = 2200.0
#: Senders in the collection-tree workload (sink + forward + reverse
#: trees — the O(senders + 1) pattern BCP's wakeup handshake queries).
_N_SENDERS = 32


@dataclasses.dataclass(frozen=True)
class BenchCase:
    """One named benchmark: untimed setup, timed run, ops counters."""

    name: str
    summary: str
    setup: typing.Callable[[], typing.Any]
    run: typing.Callable[[typing.Any], dict[str, float]]
    suites: tuple[str, ...] = SUITES
    repeats: int = 3


@dataclasses.dataclass(frozen=True)
class Ceiling:
    """A gate: ``case``'s ``metric`` must not exceed ``limit``.

    ``metric`` is ``"wall_s"`` (the case's best-of wall) or a key of the
    ops dict its run returns.
    """

    name: str
    case: str
    metric: str
    limit: float

    def measure(self, result) -> float | None:
        """``result``'s value of the metric, or None if it reports none."""
        if self.metric == "wall_s":
            return result.wall_s
        return result.ops.get(self.metric)


def _uniform_layout(n: int, field_m: float, seed: int):
    from repro.topology.layout import random_layout

    return random_layout(n, field_m, field_m, random.Random(seed))


def _collection_workload(table, n_nodes: int) -> int:
    """The query mix of a collection-tree run: sink + reverse paths.

    Forward routes sender → sink (data), plus the reverse next hop the
    WAKEUP-ACK travels (sink-side trees toward each sender).  Returns the
    number of reachable senders (a determinism cross-check).
    """
    sink = 0
    senders = random.Random(4).sample(range(1, n_nodes), _N_SENDERS)
    reached = 0
    for sender in senders:
        if not table.has_route(sender, sink):
            continue
        table.next_hop(sender, sink)
        table.hops(sender, sink)
        table.next_hop(sink, sender)
        reached += 1
    return reached


def _case_routing_lazy(
    n: int, field_m: float, suites: tuple[str, ...] = SUITES
) -> BenchCase:
    def setup():
        return _uniform_layout(n, field_m, 1 if n == 1000 else 7)

    def run(layout):
        from repro.net.routing import RoutingTable

        table = RoutingTable.from_layout(layout, _RANGE_M, rng=random.Random(2))
        reached = _collection_workload(table, n)
        return {
            "nodes": n,
            "reached_senders": reached,
            "trees": table.trees_computed,
            "edges": table.adjacency.n_edges,
        }

    return BenchCase(
        name=f"routing-build-lazy-{n // 1000}k",
        summary=(
            f"lazy CSR routing build + collection workload, {n}-node "
            "uniform deployment"
        ),
        setup=setup,
        run=run,
        suites=suites,
        repeats=5 if n <= 5000 else 3,
    )


def _case_sim_loop_10k() -> BenchCase:
    def setup():
        from repro.models.scenario import ScenarioConfig
        from repro.topology.registry import TopologySpec

        # The scenario-compose-10k deployment, but *run*: fig-cell traffic
        # rates so bursts fill (12.8 s at 2 kb/s) and ship — a 60 s window
        # is ~4 full collection rounds per sender.
        return ScenarioConfig(
            model=MODEL_DUAL_NAME,
            topology=TopologySpec.of(
                "uniform-random",
                n=10000,
                width_m=_COMPOSE_FIELD_10K,
                height_m=_COMPOSE_FIELD_10K,
            ),
            sink=0,
            n_senders=10,
            rate_bps=2000.0,
            burst_packets=100,
            sim_time_s=60.0,
            seed=1,
        )

    def run(config):
        from repro.models.scenario import Network
        from repro.perf.phases import collect_phases

        with collect_phases() as timings:
            network = Network.build(config)
            network.run()
        ops: dict[str, float] = {
            "nodes": float(config.n_nodes),
            "agents": float(len(network.agents)),
            "events": float(network.sim.events_processed),
            "events_cancelled": float(network.sim.events_cancelled),
        }
        for name, seconds in timings.items():
            ops[f"phase.{name}_s"] = seconds
        return ops

    return BenchCase(
        name="sim-loop-10k",
        summary=(
            "full 10k-node collection round: composed dual scenario, "
            "10 senders, 60 s window"
        ),
        setup=setup,
        run=run,
        suites=("full",),
        repeats=1,
    )


def _fig_cell_config(**overrides):
    from repro.models.scenario import single_hop_config

    # The fig5 bench-scale cell: 2 kb/s senders so bursts actually fill
    # and ship within the simulated window.
    defaults = dict(
        n_senders=10, burst_packets=100, rate_bps=2000.0, sim_time_s=120.0
    )
    defaults.update(overrides)
    return single_hop_config(**defaults)


def _run_network(config):
    """Build, run and collect ``config``'s cell under a phase collector;
    returns the network (its simulator and layers carry the work
    counters), the result and the phase timings."""
    from repro.models.scenario import Network
    from repro.perf.phases import collect_phases

    with collect_phases() as timings:
        network = Network.build(config)
        network.run()
        result = network.result()
    return network, result, timings


def _run_cell(config) -> dict[str, float]:
    network, result, timings = _run_network(config)
    ops: dict[str, float] = {
        "events": float(network.sim.events_processed),
        "delivered_bits": result.delivered_bits,
        "frames_sent": result.counters.get("medium.low.sent", 0.0)
        + result.counters.get("medium.high.sent", 0.0),
        "mac.retransmissions": result.counters.get("mac.retransmissions", 0.0),
        "mac.acks_dropped": result.counters.get("mac.acks_dropped", 0.0),
    }
    for name, seconds in timings.items():
        ops[f"phase.{name}_s"] = seconds
    return ops


def _case_fig_cell() -> BenchCase:
    return BenchCase(
        name="fig-cell",
        summary="end-to-end fig-scale cell: SH dual, 10 senders, 120 s",
        setup=lambda: _fig_cell_config(),
        run=_run_cell,
        repeats=4,
    )


def _case_fig_cell_heavy() -> BenchCase:
    def setup():
        from repro.models.scenario import ScenarioConfig

        return ScenarioConfig(
            model="sensor", n_senders=35, rate_bps=2000.0, sim_time_s=60.0
        )

    return BenchCase(
        name="fig-cell-heavy",
        summary="contention-collapse cell: sensor model, 35 senders, 60 s",
        setup=setup,
        run=_run_cell,
        suites=("full",),
        # Best-of-3: at ~4 s a round the wall is noise-sensitive enough
        # that a single round can swing ±15% on a busy host.
        repeats=3,
    )


def _case_scenario_compose(
    n: int, field_m: float, suites: tuple[str, ...] = SUITES
) -> BenchCase:
    def setup():
        from repro.models.scenario import ScenarioConfig
        from repro.topology.registry import TopologySpec

        # Dense enough (mean sensor-tier degree ~10) that the pinned seed
        # yields sink-connected tiers without a connectivity resample.
        return ScenarioConfig(
            model=MODEL_DUAL_NAME,
            topology=TopologySpec.of(
                "uniform-random", n=n, width_m=field_m, height_m=field_m
            ),
            sink=0,
            n_senders=10,
            sim_time_s=10.0,
            seed=1,
        )

    def run(config):
        from repro.models.scenario import Network
        from repro.perf.phases import collect_phases

        with collect_phases() as timings:
            network = Network.build(config)
        ops: dict[str, float] = {
            "nodes": float(config.n_nodes),
            "agents": float(len(network.agents)),
        }
        for name, seconds in timings.items():
            ops[f"phase.{name}_s"] = seconds
        return ops

    return BenchCase(
        name=f"scenario-compose-{n // 1000}k",
        summary=(
            "full network build (layout + media + flyweight agents + "
            f"lazy routes) for a {n}-node composed dual-radio scenario"
        ),
        setup=setup,
        run=run,
        suites=suites,
        repeats=3,
    )


def _case_churn_1k() -> BenchCase:
    """The scenario-compose-1k deployment run *mortal*: 10% of the fleet
    dies on a scripted schedule spread across the window.

    Every death pays the full fault path — MAC/radio power-down, medium
    epoch repair with busy-refcount replay, lazy routing tree rewinds —
    so this case gates the cost of topology churn at scale, which no
    immortal case exercises.  Besides the walls it records the
    deterministic repair work: ``global_partitions`` (one per neighbor
    index build; repairs never re-partition), ``levels_expanded`` and
    ``trees_rewound``.
    """

    def setup():
        from repro.faults import FaultPlan
        from repro.models.scenario import ScenarioConfig
        from repro.topology.registry import TopologySpec

        n = 1000
        sim_time_s = 30.0
        # 100 victims spread over node ids (never sink 0), one death
        # every ~0.27 s of simulated time: the topology is never stable
        # for long, which is the point.
        n_deaths = n // 10
        step = sim_time_s * 0.9 / n_deaths
        plan = FaultPlan(
            crashes=tuple(
                (step * (i + 1), 1 + (i * 9) % (n - 1))
                for i in range(n_deaths)
            )
        )
        return ScenarioConfig(
            model=MODEL_DUAL_NAME,
            topology=TopologySpec.of(
                "uniform-random",
                n=n,
                width_m=_COMPOSE_FIELD_1K,
                height_m=_COMPOSE_FIELD_1K,
            ),
            sink=0,
            n_senders=10,
            rate_bps=2000.0,
            burst_packets=100,
            sim_time_s=sim_time_s,
            seed=1,
            faults=plan,
        )

    def run(config):
        from repro.net.routing import RoutingTable

        # The network's index and routing tables carry the deterministic
        # epoch-repair work counters.
        network, result, timings = _run_network(config)
        bfs = [
            table
            for table in network.route_tables.values()
            if isinstance(table, RoutingTable)
        ]
        ops: dict[str, float] = {
            "nodes": float(config.n_nodes),
            "deaths": result.counters["faults.deaths"],
            "epochs": result.counters["faults.epochs"],
            "delivered_bits": result.delivered_bits,
            "power_down_drops": result.counters["faults.power_down_drops"],
            "global_partitions": float(
                sum(
                    medium._index.global_partitions
                    for medium in network.mediums
                    if medium._index is not None
                )
            ),
            "levels_expanded": float(
                sum(table.levels_expanded for table in bfs)
            ),
            "trees_rewound": float(sum(table.trees_rewound for table in bfs)),
        }
        for name, seconds in timings.items():
            ops[f"phase.{name}_s"] = seconds
        return ops

    return BenchCase(
        name="churn-1k",
        summary=(
            "mortal 1k-node collection round: 100 scripted deaths over a "
            "30 s window (fault path + epoch repair at scale)"
        ),
        setup=setup,
        run=run,
        repeats=2,
    )


def _case_routing_policy_1k() -> BenchCase:
    """One 1k-node collection round's routing work per registered policy.

    ``hops`` runs the production default at this scale (the lazy BFS
    engine); the energy policies run the Dijkstra cost engine with static
    (tx-energy) and dynamic (residual-energy, synthetic depletion
    spread) cost models.  Gates the cost engine's build+query price
    against the BFS baseline it extends.
    """

    def setup():
        from repro.net.csr import CsrGraph

        layout = _uniform_layout(1000, _FIELD_1K, 1)
        return layout, CsrGraph.from_layout(layout, _RANGE_M)

    def run(prepared):
        from repro.net.policy import (
            ROUTING_POLICIES,
            RoutingPolicyContext,
            build_cost_model,
        )
        from repro.net.routing import DijkstraRoutingTable, RoutingTable

        layout, graph = prepared
        # Synthetic depletion spread so the residual policy's factors are
        # non-uniform (a flat fleet would degenerate to tx-energy).
        context = RoutingPolicyContext(
            packet_bits=320,
            residual_fraction=lambda node: 1.0 - (node % 97) / 128.0,
        )
        reached = 0
        trees = 0
        for policy in ROUTING_POLICIES.names():
            cost_model = build_cost_model(policy, context)
            if cost_model is None:
                table = RoutingTable.from_layout(
                    layout, _RANGE_M, rng=random.Random(2)
                )
            else:
                table = DijkstraRoutingTable(
                    graph, cost_model, layout=layout, rng=random.Random(2)
                )
            reached += _collection_workload(table, 1000)
            trees += table.trees_computed
        return {
            "nodes": 1000.0,
            "policies": float(len(ROUTING_POLICIES.names())),
            "reached_senders": float(reached),
            "trees": float(trees),
        }

    return BenchCase(
        name="routing-policy-1k",
        summary=(
            "1k-node collection-round routing per policy: lazy BFS (hops) "
            "vs the Dijkstra cost engine (tx-energy, residual-energy)"
        ),
        setup=setup,
        run=run,
        repeats=3,
    )


#: ``"dual"`` without importing the model layer at module import time.
MODEL_DUAL_NAME = "dual"

#: Kernel events of one ``fig-cell`` run (deterministic).
FIG_CELL_EVENTS = 19_728

#: Every gate, checked whenever its case ran.  Wall ceilings are
#: acceptance budgets that must hold on any CI-class host, so they sit
#: well above healthy walls and catch order-of-magnitude regressions (a
#: lost fast path, an accidentally quadratic loop).  Ops ceilings are the
#: exact work counts of the current code: any growth in work fails.
CEILINGS = (
    # A collection round builds one tree per distinct destination: each
    # sender's reverse tree plus the sink's.
    Ceiling("routing-1k-trees", "routing-build-lazy-1k", "trees", _N_SENDERS + 1),
    # Three policies' worth of 1k-node collection routing: the Dijkstra
    # cost engine must stay in the lazy BFS engine's latency class.
    Ceiling("routing-policy-1k-budget", "routing-policy-1k", "wall_s", 10.0),
    # The 10k-node composed scenario stays a seconds-scale build.
    Ceiling("scenario-10k-build-budget", "scenario-compose-10k", "wall_s", 5.0),
    Ceiling("sim-loop-10k-budget", "sim-loop-10k", "wall_s", 20.0),
    Ceiling("sim-loop-10k-events", "sim-loop-10k", "events", 101_980),
    # The wall ceiling is its own number, not derived from the events
    # ceiling: work cut from the cell tightens that one alone.
    Ceiling("fig-cell-wall", "fig-cell", "wall_s", 0.403),
    Ceiling("fig-cell-events", "fig-cell", "events", FIG_CELL_EVENTS),
    Ceiling("fig-cell-heavy-events", "fig-cell-heavy", "events", 680_057),
    # 100 deaths' worth of epoch repair: one neighbor-index partition per
    # medium (repairs never re-partition) and bounded tree re-expansion;
    # partition checks grow no tree, so what is left is the routes BCP
    # actually asks for.
    Ceiling("churn-1k-budget", "churn-1k", "wall_s", 10.0),
    Ceiling("churn-1k-partitions", "churn-1k", "global_partitions", 2),
    Ceiling("churn-1k-levels", "churn-1k", "levels_expanded", 538),
    Ceiling("churn-1k-rewinds", "churn-1k", "trees_rewound", 99),
)


def all_cases() -> tuple[BenchCase, ...]:
    """Every declared case, in run order."""
    return (
        _case_routing_lazy(1000, _FIELD_1K),
        _case_routing_policy_1k(),
        _case_routing_lazy(5000, _FIELD_5K),
        _case_routing_lazy(10000, _FIELD_10K, suites=("full",)),
        _case_sim_loop_10k(),
        _case_fig_cell(),
        _case_fig_cell_heavy(),
        _case_scenario_compose(1000, _COMPOSE_FIELD_1K),
        _case_scenario_compose(10000, _COMPOSE_FIELD_10K, suites=("full",)),
        _case_churn_1k(),
    )


def bench_cases(suite: str = "smoke") -> list[BenchCase]:
    """The cases belonging to ``suite`` (ValueError for unknown names)."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES}")
    return [case for case in all_cases() if suite in case.suites]


def ceilings(case_names: typing.Collection[str]) -> list[Ceiling]:
    """The ceilings whose case is present in ``case_names``."""
    return [ceiling for ceiling in CEILINGS if ceiling.case in case_names]
