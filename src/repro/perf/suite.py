"""The declared benchmark suite ``repro bench`` runs.

Each :class:`BenchCase` is a named, deterministic workload with an untimed
``setup`` and a timed ``run`` returning ops counters.  Cases are tagged
into suites: ``smoke`` is the CI gate (everything the acceptance criteria
pin — routing build at 1k/5k nodes, the sim kernel, medium delivery, one
end-to-end fig-scale cell, a 1k-node composed scenario build); ``full``
is a superset adding the heavy contention cell and the 10k-node scale
cases (lazy routing, batched medium delivery and the full
composed-scenario build at 10k nodes — nightly/full material, too slow
for every-PR smoke).

Wall times are machine-dependent, so the committed ``BENCH_*.json``
baselines gate *relative* regressions (see :mod:`repro.perf.bench`);
:data:`RATIO_GATES` additionally pins machine-independent speedup ratios
(lazy vs eager routing must stay ≥ 10× at 1k nodes),
:data:`THROUGHPUT_GATES` pins wall-normalized event-rate floors (the
end-to-end fig-cell keeps its kernel event rate), and
:data:`WALL_BUDGETS` pins the absolute acceptance budgets that must hold
on any CI-class host (a 10k-node composed scenario builds in < 5 s; a
full 10k-node collection round finishes in < 20 s).
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
class RatioGate:
    """A machine-independent check: ``slow_case / fast_case >= min_ratio``."""

    name: str
    slow_case: str
    fast_case: str
    min_ratio: float


@dataclasses.dataclass(frozen=True)
class ThroughputGate:
    """A machine-independent-ish floor: ``ops[ops_key] / wall_s >= min_per_s``.

    Wall-normalized rather than wall-absolute, so it survives suite
    growth (adding cases doesn't shift it), but still host-dependent —
    floors are set well below healthy-machine rates (~0.6x of a
    single-core dev box's best-of) so they catch gross regressions (an
    accidentally quadratic agenda, a dropped fast path) without flaking
    on a loaded runner.
    """

    name: str
    case: str
    ops_key: str
    min_per_s: float


@dataclasses.dataclass(frozen=True)
class WallBudget:
    """An absolute acceptance budget: ``case`` must finish in ``max_wall_s``.

    Unlike the baseline comparison (relative, same-host-class only),
    budgets encode acceptance criteria that must hold anywhere the suite
    runs — so they are generous enough for a loaded CI runner while
    still catching order-of-magnitude construction regressions.
    """

    name: str
    case: str
    max_wall_s: float


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


def _case_routing_eager_1k() -> BenchCase:
    def setup():
        return _uniform_layout(1000, _FIELD_1K, 1)

    def run(layout):
        from repro.net.routing import build_routing

        table = build_routing(layout, _RANGE_M, rng=random.Random(2))
        reached = _collection_workload(table, 1000)
        return {"nodes": 1000, "reached_senders": reached, "trees": 1000}

    return BenchCase(
        name="routing-build-eager-1k",
        summary="eager all-pairs routing build, 1k-node uniform deployment",
        setup=setup,
        run=run,
        # Gate-bearing (25% regression threshold): a single sample lets
        # one host load spike read as a code regression.
        repeats=3,
    )


def _case_routing_lazy(
    n: int, field_m: float, suites: tuple[str, ...] = SUITES
) -> BenchCase:
    def setup():
        return _uniform_layout(n, field_m, 1 if n == 1000 else 7)

    def run(layout):
        from repro.net.routing import build_routing

        table = build_routing(
            layout, _RANGE_M, rng=random.Random(2), engine="lazy"
        )
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


def _case_sim_event_loop() -> BenchCase:
    def setup():
        return None

    def run(_state):
        from repro.sim.simulator import Simulator

        sim = Simulator(seed=1)

        def ticker(count):
            for _ in range(count):
                yield sim.timeout(1.0)

        for _ in range(10):
            sim.process(ticker(30_000))
        sim.run()
        return {"events": float(sim.events_processed)}

    return BenchCase(
        name="sim-event-loop",
        summary="pure kernel throughput: 300k chained timeouts",
        setup=setup,
        run=run,
        # Sub-second case: extra repeats so the recorded best-of
        # reflects the host, not one noisy slice.
        repeats=7,
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
        from repro.models.scenario import build_network
        from repro.perf.phases import collect_phases, phase
        from repro.sim.simulator import Simulator

        with collect_phases() as timings:
            sim = Simulator(seed=config.seed)
            with phase("network_build"):
                built = build_network(config, sim)
            with phase("sim_loop"):
                sim.run(until=config.sim_time_s)
        ops: dict[str, float] = {
            "nodes": float(config.n_nodes),
            "agents": float(len(built.agents)),
            "events": float(sim.events_processed),
            "events_cancelled": float(sim.events_cancelled),
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


def _case_medium_delivery() -> BenchCase:
    def setup():
        return _uniform_layout(100, 250.0, 3)

    def run(layout):
        from repro.channel.medium import Medium
        from repro.energy.meter import EnergyMeter
        from repro.energy.radio_specs import MICAZ
        from repro.mac.frames import Frame, FrameKind
        from repro.radio.radio import LowPowerRadio
        from repro.sim.simulator import Simulator

        sim = Simulator(seed=1)
        medium = Medium(sim, layout, name="bench")
        radios = {
            node: LowPowerRadio(
                sim, node, MICAZ, medium, EnergyMeter(f"n{node}")
            )
            for node in layout.node_ids
        }

        def sender(node):
            neighbors = medium.neighbors(node)
            if not neighbors:
                return
            dst = neighbors[0]
            for seq in range(150):
                frame = Frame(
                    kind=FrameKind.DATA,
                    src=node,
                    dst=dst,
                    payload_bits=256,
                    header_bits=88,
                    seq=seq,
                    require_ack=False,
                )
                yield radios[node].transmit(frame)

        for node in list(layout.node_ids)[:25]:
            sim.process(sender(node))
        sim.run()
        return {
            "frames_sent": float(medium.frames_sent),
            "frames_delivered": float(medium.frames_delivered),
            "events": float(sim.events_processed),
        }

    return BenchCase(
        name="medium-delivery",
        summary="per-frame medium work: 25 senders x 150 unicast frames",
        setup=setup,
        run=run,
        repeats=5,
    )


def _case_medium_delivery_10k() -> BenchCase:
    def setup():
        # Fleet construction and the neighbor-index build are untimed:
        # the case isolates the per-frame delivery path (batched energy
        # fanout, listening bitmap, incremental busy refcounts) at the
        # 10k-node composed-scenario density.
        from repro.channel.medium import Medium
        from repro.energy.meter import MeterBank
        from repro.energy.radio_specs import MICAZ
        from repro.radio.radio import LowPowerRadio
        from repro.sim.simulator import Simulator

        layout = _uniform_layout(10000, _COMPOSE_FIELD_10K, 3)
        sim = Simulator(seed=1)
        medium = Medium(sim, layout, name="bench")
        bank = MeterBank(len(layout.node_ids))
        radios = {
            node: LowPowerRadio(sim, node, MICAZ, medium, bank.meter(node))
            for node in layout.node_ids
        }
        medium._neighbor_index()
        return sim, medium, radios

    def run(state):
        from repro.mac.frames import Frame, FrameKind

        sim, medium, radios = state

        def sender(node):
            neighbors = medium.neighbors(node)
            if not neighbors:
                return
            dst = neighbors[0]
            for seq in range(100):
                frame = Frame(
                    kind=FrameKind.DATA,
                    src=node,
                    dst=dst,
                    payload_bits=256,
                    header_bits=88,
                    seq=seq,
                    require_ack=False,
                )
                yield radios[node].transmit(frame)

        for node in list(radios)[:100]:
            sim.process(sender(node))
        sim.run()
        return {
            "frames_sent": float(medium.frames_sent),
            "frames_delivered": float(medium.frames_delivered),
            "events": float(sim.events_processed),
        }

    return BenchCase(
        name="medium-delivery-10k",
        summary=(
            "batched medium hot path at scale: 100 senders x 100 unicast "
            "frames across a 10k-node fleet"
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


def _run_cell(config) -> dict[str, float]:
    from repro.models import scenario
    from repro.perf.phases import collect_phases

    # Keep the simulator run_scenario builds, for its event count.
    sims = []
    build_network = scenario.build_network

    def capturing(config, sim):
        sims.append(sim)
        return build_network(config, sim)

    scenario.build_network = capturing
    try:
        with collect_phases() as timings:
            result = scenario.run_scenario(config)
    finally:
        scenario.build_network = build_network
    ops: dict[str, float] = {
        "events": float(sims[0].events_processed),
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


def _case_mac_contention() -> BenchCase:
    """A dense retry-heavy MAC cell: a 25-node line at exactly radio
    range, every node bursting acked frames at its successor.

    Each interior node is a hidden terminal to its neighbor's neighbor,
    so the cell lives in backoff-double/retry/ack-timeout churn and ~1k
    data frames plus their retries flow per round.
    """

    def setup():
        return None

    def run(_state) -> dict[str, float]:
        from repro.channel.medium import Medium
        from repro.energy.meter import MeterBank
        from repro.energy.radio_specs import MICAZ
        from repro.mac.csma import SensorCsmaMac
        from repro.mac.frames import Frame, FrameKind
        from repro.radio.radio import LowPowerRadio
        from repro.sim.simulator import Simulator
        from repro.topology import line_layout

        n = 25
        per_sender = 40
        sim = Simulator(seed=5)
        layout = line_layout(n, 40.0)
        medium = Medium(sim, layout, "mac-bench")
        bank = MeterBank(n)
        radios = [
            LowPowerRadio(sim, i, MICAZ, medium, bank.meter(i))
            for i in range(n)
        ]
        macs = [SensorCsmaMac(sim, radios[i]) for i in range(n)]

        def source(i: int):
            for _ in range(per_sender):
                yield sim.timeout(0.02)
                yield macs[i].send(
                    Frame(
                        kind=FrameKind.DATA,
                        src=i,
                        dst=i + 1,
                        payload_bits=512,
                        header_bits=64,
                        require_ack=True,
                    )
                )

        for i in range(n - 1):
            sim.process(source(i))
        sim.run()
        frames_sent = float(sum(m.sent_ok + m.sent_failed for m in macs))
        return {
            "frames_sent": frames_sent,
            "mac.retransmissions": float(
                sum(m.retransmissions for m in macs)
            ),
            "events": float(sim.events_processed),
        }

    return BenchCase(
        name="mac-contention-1k",
        summary="retry-heavy 25-node hidden-terminal line, ~1k acked frames",
        setup=setup,
        run=run,
        repeats=2,
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
        from repro.models.scenario import build_network
        from repro.perf.phases import collect_phases, phase
        from repro.sim.simulator import Simulator

        with collect_phases() as timings, phase("network_build"):
            sim = Simulator(seed=config.seed)
            built = build_network(config, sim)
        ops: dict[str, float] = {
            "nodes": float(config.n_nodes),
            "agents": float(len(built.agents)),
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
    epoch repair with busy-refcount replay, lazy routing re-invalidation
    — so this case gates the cost of topology churn at scale, which no
    immortal case exercises.
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
        from repro.models.scenario import run_scenario
        from repro.perf.phases import collect_phases

        with collect_phases() as timings:
            result = run_scenario(config)
        ops: dict[str, float] = {
            "nodes": float(config.n_nodes),
            "deaths": result.counters["faults.deaths"],
            "epochs": result.counters["faults.epochs"],
            "delivered_bits": result.delivered_bits,
            "power_down_drops": result.counters["faults.power_down_drops"],
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
        from repro.net.routing import DijkstraRoutingTable, build_routing

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
                table = build_routing(
                    layout, _RANGE_M, rng=random.Random(2), engine="lazy"
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

#: Machine-independent gates checked after every suite run: the lazy
#: engine must beat the eager all-pairs baseline by at least this factor
#: on the acceptance workload.
RATIO_GATES = (
    RatioGate(
        name="routing-1k-speedup",
        slow_case="routing-build-eager-1k",
        fast_case="routing-build-lazy-1k",
        min_ratio=10.0,
    ),
)

#: Wall-normalized throughput floors: the end-to-end fig-cell must
#: sustain at least 75k kernel events/s over its whole run_scenario wall
#: (measured 118k-134k best-of on a single-core dev box; the floor sits
#: at ~0.6x, the headroom the retired 1M floor on the kernel microbench
#: had, and catches a lost fast path anywhere in the stack).
THROUGHPUT_GATES = (
    ThroughputGate(
        name="sim-events-per-sec",
        case="fig-cell",
        ops_key="events",
        min_per_s=75_000.0,
    ),
)

#: Absolute acceptance budgets (checked whenever their case ran): the
#: 10k-node composed scenario must stay a seconds-scale build on any
#: CI-class host, per the PR-5 acceptance criteria, and the full 10k-node
#: collection round must finish inside 20 s (measured ~3 s after the
#: PR-7 batched-medium + incremental-BFS work; the generous budget
#: absorbs loaded CI runners while catching a lost fast path).
WALL_BUDGETS = (
    WallBudget(
        name="scenario-10k-build-budget",
        case="scenario-compose-10k",
        max_wall_s=5.0,
    ),
    WallBudget(
        name="sim-loop-10k-budget",
        case="sim-loop-10k",
        max_wall_s=20.0,
    ),
    # The mortal 1k-node round: 100 deaths' worth of epoch repair and
    # routing invalidation must stay cheap relative to the traffic it
    # disrupts (measured ~2 s on a dev box; the budget absorbs loaded CI
    # runners while catching an accidentally quadratic repair path).
    WallBudget(
        name="churn-1k-budget",
        case="churn-1k",
        max_wall_s=10.0,
    ),
    # Three policies' worth of 1k-node collection routing (33 trees
    # each): the Dijkstra cost engine must stay in the lazy BFS engine's
    # latency class (measured well under 1 s on a dev box; the budget
    # absorbs loaded CI runners while catching an accidentally quadratic
    # relaxation loop).
    WallBudget(
        name="routing-policy-1k-budget",
        case="routing-policy-1k",
        max_wall_s=10.0,
    ),
)


def all_cases() -> tuple[BenchCase, ...]:
    """Every declared case, in run order."""
    return (
        _case_routing_eager_1k(),
        _case_routing_lazy(1000, _FIELD_1K),
        _case_routing_policy_1k(),
        _case_routing_lazy(5000, _FIELD_5K),
        _case_routing_lazy(10000, _FIELD_10K, suites=("full",)),
        _case_sim_event_loop(),
        _case_sim_loop_10k(),
        _case_medium_delivery(),
        _case_medium_delivery_10k(),
        _case_mac_contention(),
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


def ratio_gates(case_names: typing.Collection[str]) -> list[RatioGate]:
    """The gates whose two cases are both present in ``case_names``."""
    return [
        gate
        for gate in RATIO_GATES
        if gate.slow_case in case_names and gate.fast_case in case_names
    ]


def wall_budgets(case_names: typing.Collection[str]) -> list[WallBudget]:
    """The budgets whose case is present in ``case_names``."""
    return [budget for budget in WALL_BUDGETS if budget.case in case_names]


def throughput_gates(
    case_names: typing.Collection[str],
) -> list[ThroughputGate]:
    """The throughput floors whose case is present in ``case_names``."""
    return [gate for gate in THROUGHPUT_GATES if gate.case in case_names]
