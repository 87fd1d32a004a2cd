"""The Section 4.1 evaluation harness: scenario configuration and metrics.

A :class:`ScenarioConfig` describes one cell of the experiment matrix:
which model (*sensor*, *wifi*, *dual*), the deployment, who sends at what
rate, the burst size, and whether the high-power radio has the multi-hop
range advantage.  :func:`run_scenario` is three calls on one
:class:`Network`: :meth:`Network.build`, :meth:`Network.run` and
:meth:`Network.result`, which returns a
:class:`~repro.stats.metrics.RunResult`.  A caller that needs the
simulator or the built network around a run (a benchmark's work
counters, a post-run check) makes the same three calls itself.
:func:`run_replicated` repeats with different seeds for confidence
intervals.

Scenario composition
--------------------
The paper evaluates one deployment shape — a 6×6 grid, unit-disc links,
one radio pairing per model.  Those remain the defaults (and remain
byte-identical to the original harness), but each axis is now pluggable
through registry-backed spec fields, so deployments beyond the paper are
plain config data — hashable, cacheable and sweepable like any other cell:

* ``topology`` — a :class:`~repro.topology.registry.TopologySpec`
  (``grid``, ``line``, ``uniform-random``, ``clustered``, ``from-file``);
  ``None`` keeps the paper's ``rows × cols × spacing_m`` grid fields.
* ``propagation`` — a :class:`~repro.channel.propagation.PropagationSpec`
  (``unit-disc``, ``log-normal``, ``distance-prr``) applied to both
  channels; ``None`` keeps the paper's unit-disc medium.
* ``high_radios`` — a :class:`RadioAssignment` naming each node's
  high-power NIC (mixed fleets, a Cabletron-only sink, ...); ``None``
  gives every node ``high_spec`` as before.
* ``traffic`` / ``traffic_mix`` — registry names from
  :mod:`repro.traffic.registry`; the mix overrides the uniform choice per
  sender (e.g. a few audio nodes among CBR ones).
* ``routing`` — the BFS tie-break scheme: ``auto`` (default) keeps the
  paper's ``eager`` threaded scheme (every tree built up front from one
  rng stream) up to :data:`LAZY_ROUTING_THRESHOLD` nodes and switches to
  the ``lazy`` per-destination scheme (trees built on demand) beyond it
  (see :mod:`repro.net.routing`); ``eager``/``lazy`` force one.

Paper defaults (Section 4.1): 200×200 m² grid of 36 nodes, 5000 s runs,
32 B sensor packets, 1024 B 802.11 packets, buffer 5000 × 32 B, burst
sizes {10, 100, 500, 1000, 2500} packets, 20 runs with 95% CIs.  The
single-hop (SH) case pairs Micaz with Lucent 11 Mb/s (same range, same
tree); the multi-hop (MH) case pairs Micaz with Cabletron, which reaches
the sink in one hop.

The paper does not state where the sink sits.  We place it near the grid
center (node 14, at 80 m/80 m), the choice consistent with both of the
paper's statements: Cabletron's nominal 250 m range genuinely covers every
node from there (max distance 170 m — a corner sink would need 283 m), and
sensor paths stay within the handful of hops the evaluation implies.
Equal-cost routing ties break at random per run (seeded); on a perfect
grid, deterministic ties would funnel every flow onto one row, a
worst-case artifact no deployed collection tree shows.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.channel.medium import LossModel, Medium
from repro.channel.propagation import (
    PROPAGATION,
    PropagationSpec,
    build_propagation,
)
from repro.core.bcp import BcpAgent, BcpNodeSpec
from repro.core.config import BcpConfig
from repro.energy.battery import AA_PAIR_CAPACITY_J
from repro.energy.meter import MeterBank, NodeMeter
from repro.energy.radio_specs import (
    CABLETRON,
    FIRST_ORDER_RADIO_MODEL,
    LUCENT_11,
    MICAZ,
    RadioSpec,
    get_spec,
)
from repro.energy.residual import live_residual_fraction
from repro.faults import FaultInjector, FaultPlan
from repro.mac.csma import SensorCsmaMac
from repro.mac.dcf import DcfMac
from repro.models.forwarding import ForwardingAgent
from repro.net.addressing import AddressMap
from repro.net.csr import CsrGraph
from repro.net.policy import (
    POLICY_HOPS,
    ROUTING_POLICIES,
    RoutingPolicyContext,
    build_cost_model,
)
from repro.net.routing import DijkstraRoutingTable, RoutingLike, RoutingTable
from repro.perf.phases import phase
from repro.radio.radio import (
    CATEGORY_OVERHEAR_BODY,
    CATEGORY_OVERHEAR_HEADER,
    HighPowerRadio,
    LowPowerRadio,
)
from repro.sim.simulator import Simulator
from repro.stats.collector import SinkCollector
from repro.stats.metrics import (
    ENERGY_HIGH_RADIO,
    ENERGY_LOW_RADIO,
    ENERGY_SENSOR_FULL,
    ENERGY_SENSOR_HEADER,
    ENERGY_SENSOR_IDEAL,
    ENERGY_TOTAL,
    RunResult,
)
from repro.stats.summary import ReplicatedSummary, summarize_runs
from repro.topology.layout import Layout, grid_layout
from repro.topology.registry import (
    TOPOLOGIES,
    TopologySpec,
    build_layout,
    topology_node_count,
)
from repro.traffic.generators import CbrSource
from repro.traffic.registry import TRAFFIC, build_source
from repro.units import BITS_PER_BYTE

if typing.TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.runner.executor import SweepRunner

#: Model identifiers.
MODEL_SENSOR = "sensor"
MODEL_WIFI = "wifi"
MODEL_DUAL = "dual"

#: The burst sizes (in sensor packets) the paper sweeps.
PAPER_BURST_SIZES = (10, 100, 500, 1000, 2500)

#: The sender counts on the figures' x axes.
PAPER_SENDER_COUNTS = (5, 10, 15, 20, 25, 30, 35)

#: Deployment size above which ``routing="auto"`` switches to the lazy
#: per-destination tie-break scheme.  Below it the historical eager
#: threaded scheme is kept: it is what every pinned golden digest
#: encodes, and at paper scale (36 nodes) building every tree up front
#: costs nothing.  Above it that all-pairs build is the O(n²) wall, and
#: per-destination tie-breaking (order-independent, so trees are built
#: on demand; see :mod:`repro.net.routing`) takes over.
LAZY_ROUTING_THRESHOLD = 256

#: Tie-break schemes accepted by :attr:`ScenarioConfig.routing`.
ROUTING_MODES = ("auto", "eager", "lazy")


@dataclasses.dataclass(frozen=True)
class RadioAssignment:
    """Per-node high-power radio selection for heterogeneous deployments.

    Attributes
    ----------
    default:
        Table 1 radio name every unlisted node gets; ``None`` falls back
        to the scenario's ``high_spec`` (with its multi-hop range
        override, if any).
    overrides:
        ``(node_id, radio_name)`` pairs for nodes that differ — e.g.
        ``((14, "Cabletron"),)`` for a deployment whose sink alone carries
        the long-range NIC.
    """

    default: str | None = None
    overrides: tuple[tuple[int, str], ...] = ()

    @classmethod
    def parse(cls, text: str, default: str | None = None) -> "RadioAssignment":
        """Parse CLI syntax ``node=Name,node=Name`` into an assignment."""
        overrides = []
        if text.strip():
            for pair in text.split(","):
                node, sep, name = pair.partition("=")
                if not sep:
                    raise ValueError(
                        f"bad radio override {pair!r}; expected node=RadioName"
                    )
                overrides.append((int(node), name.strip()))
        return cls(default=default, overrides=tuple(sorted(overrides)))

    def names(self) -> list[str]:
        """Every radio name the assignment references."""
        names = [name for _node, name in self.overrides]
        if self.default is not None:
            names.append(self.default)
        return names

    def spec_for(self, node_id: int, fallback: RadioSpec) -> RadioSpec:
        """The high-power spec ``node_id`` carries."""
        for node, name in self.overrides:
            if node == node_id:
                return get_spec(name)
        if self.default is not None:
            return get_spec(self.default)
        return fallback


@dataclasses.dataclass
class ScenarioConfig:
    """One experiment cell.  See module docstring for the paper defaults."""

    model: str = MODEL_DUAL
    rows: int = 6
    cols: int = 6
    spacing_m: float = 40.0
    sink: int = 14
    n_senders: int = 10
    rate_bps: float = 200.0
    payload_bytes: int = 32
    sim_time_s: float = 5000.0
    seed: int = 1
    low_spec: RadioSpec = MICAZ
    high_spec: RadioSpec = LUCENT_11
    multihop: bool = False
    multihop_range_m: float | None = None
    burst_packets: int = 500
    buffer_packets: int = 5000
    loss_probability: float = 0.0
    flow_control: bool = True
    shortcut_learning: bool = False
    shortcut_observation: bool = True
    idle_linger_s: float = 0.0
    wakeup_timeout_s: float = 3.0
    receiver_idle_timeout_s: float = 3.0
    traffic: str = "cbr"
    #: Deployment shape; ``None`` keeps the paper's grid fields above.
    topology: TopologySpec | None = None
    #: Channel propagation; ``None`` keeps the paper's unit-disc medium.
    propagation: PropagationSpec | None = None
    #: Per-node high-power radio selection; ``None`` = ``high_spec`` for all.
    high_radios: RadioAssignment | None = None
    #: Per-sender traffic overrides ``(node_id, source_name)``; unlisted
    #: senders use ``traffic``.
    traffic_mix: tuple[tuple[int, str], ...] = ()
    #: BFS tie-break scheme: ``"eager"`` (threaded: every tree built at
    #: construction from one rng stream) or ``"lazy"`` (per-destination
    #: streams: trees built on demand); ``"auto"`` picks eager below
    #: :data:`LAZY_ROUTING_THRESHOLD` nodes and lazy above.  The schemes
    #: break ties differently, so this is part of the cell's cached
    #: identity (see :mod:`repro.net.routing`).
    routing: str = "auto"
    #: Route metric (:data:`repro.net.policy.ROUTING_POLICIES`): ``"hops"``
    #: (default) keeps the BFS engine and every pinned golden digest
    #: byte-identical; ``"tx-energy"`` / ``"residual-energy"`` route over
    #: the Dijkstra cost engine and consciously diverge.  Unlike
    #: ``routing`` (which only picks among equal-hop routes), the policy
    #: changes the route metric itself.
    routing_policy: str = POLICY_HOPS
    #: Fault schedule (:mod:`repro.faults`): scripted node crashes and
    #: recoveries, link up/down events, random churn, battery-depletion
    #: deaths.  ``None`` (and the zero plan ``FaultPlan()``) leave the
    #: run immortal and execute none of the fault machinery — the pinned
    #: golden digests cover exactly that path.  Part of the cached
    #: identity like every other axis.
    faults: FaultPlan | None = None

    def __post_init__(self) -> None:
        if self.model not in (MODEL_SENSOR, MODEL_WIFI, MODEL_DUAL):
            raise ValueError(f"unknown model {self.model!r}")
        if self.routing not in ROUTING_MODES:
            raise ValueError(
                f"unknown routing engine {self.routing!r}; "
                f"expected one of {ROUTING_MODES}"
            )
        if self.routing_policy not in ROUTING_POLICIES:
            raise ValueError(
                f"unknown routing policy {self.routing_policy!r}; "
                f"registered: {ROUTING_POLICIES.names()}"
            )
        if self.topology is not None and self.topology.kind not in TOPOLOGIES:
            raise ValueError(
                f"unknown topology {self.topology.kind!r}; "
                f"registered: {TOPOLOGIES.names()}"
            )
        if self.propagation is not None and self.propagation.kind not in PROPAGATION:
            raise ValueError(
                f"unknown propagation model {self.propagation.kind!r}; "
                f"registered: {PROPAGATION.names()}"
            )
        n_nodes = self.n_nodes
        if not 0 <= self.sink < n_nodes:
            raise ValueError("sink must be a deployed node")
        if not 1 <= self.n_senders <= n_nodes - 1:
            raise ValueError(
                f"n_senders must be in [1, {n_nodes - 1}], got {self.n_senders}"
            )
        for name in (self.traffic, *(name for _node, name in self.traffic_mix)):
            if name not in TRAFFIC:
                raise ValueError(
                    f"unknown traffic model {name!r}; registered: {TRAFFIC.names()}"
                )
        mix_nodes = [node for node, _name in self.traffic_mix]
        for node in mix_nodes:
            if not 0 <= node < n_nodes:
                raise ValueError(f"traffic_mix node {node} is not deployed")
            if node == self.sink:
                raise ValueError("traffic_mix cannot include the sink")
        if len(set(mix_nodes)) != len(mix_nodes):
            raise ValueError("traffic_mix lists a node more than once")
        if len(mix_nodes) > self.n_senders:
            raise ValueError(
                f"traffic_mix names {len(mix_nodes)} senders but n_senders "
                f"is {self.n_senders}; mix nodes always send"
            )
        if self.high_radios is not None:
            for node, _name in self.high_radios.overrides:
                if not 0 <= node < n_nodes:
                    raise ValueError(f"high_radios node {node} is not deployed")
            for name in self.high_radios.names():
                get_spec(name)  # raises KeyError listing valid names
        if self.faults is not None:
            self.faults.validate(n_nodes)

    @property
    def n_nodes(self) -> int:
        """Deployment size (grid fields, or the topology spec's count)."""
        if self.topology is None:
            return self.rows * self.cols
        return topology_node_count(self.topology)

    def build_layout(self, sim: Simulator) -> Layout:
        """Realize this config's deployment inside ``sim``.

        Randomized topologies draw from the ``"topology.layout"`` stream,
        so the deployment is a pure function of the config seed.
        """
        if self.topology is None:
            return grid_layout(self.rows, self.cols, self.spacing_m)
        return build_layout(self.topology, rng=sim.rng.stream("topology.layout"))

    def effective_high_spec(self) -> RadioSpec:
        """The high-power spec, with an optional MH range override.

        With the default center sink, Cabletron's own 250 m range reaches
        every node, so no override is needed; ``multihop_range_m`` exists
        for corner-sink or larger-field variants.
        """
        if self.multihop and self.multihop_range_m is not None:
            return self.high_spec.replace(range_m=self.multihop_range_m)
        return self.high_spec

    def high_spec_for(self, node_id: int) -> RadioSpec:
        """The high-power spec ``node_id`` carries (assignment-aware)."""
        fallback = self.effective_high_spec()
        if self.high_radios is None:
            return fallback
        return self.high_radios.spec_for(node_id, fallback)

    def traffic_for(self, node_id: int) -> str:
        """The traffic source name driving ``node_id`` if it sends."""
        for node, name in self.traffic_mix:
            if node == node_id:
                return name
        return self.traffic

    def routing_engine(self) -> str:
        """The resolved tie-break scheme (``"eager"`` or ``"lazy"``)."""
        if self.routing != "auto":
            return self.routing
        if self.n_nodes > LAZY_ROUTING_THRESHOLD:
            return "lazy"
        return "eager"

    def replace(self, **changes: typing.Any) -> "ScenarioConfig":
        """Copy with ``changes`` applied."""
        return dataclasses.replace(self, **changes)

    def cache_key(self) -> str:
        """This cell's global identity: the sha256 config hash.

        The same value names the cell's cache entry (``<key>.json``),
        keys the progress of distributed runs, and decides which shard of
        an N-machine sweep executes the cell
        (:func:`repro.runner.shard.shard_index`) — identical on every
        machine because it is derived purely from the config's contents.
        Every composition axis (topology, propagation, radio assignment,
        traffic mix) is plain data inside the config, so it is covered
        automatically.
        """
        from repro.runner.hashing import config_key

        return config_key(self)


def single_hop_config(**overrides: typing.Any) -> ScenarioConfig:
    """The paper's SH setup: Lucent 11 Mb/s with sensor-equal range."""
    defaults: dict[str, typing.Any] = dict(
        model=MODEL_DUAL, high_spec=LUCENT_11, multihop=False
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def multi_hop_config(**overrides: typing.Any) -> ScenarioConfig:
    """The paper's MH setup: Cabletron reaching the sink in one hop."""
    defaults: dict[str, typing.Any] = dict(
        model=MODEL_DUAL, high_spec=CABLETRON, multihop=True, rate_bps=2000.0
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


class Network:
    """One built scenario cell: every object a run touches, and the run.

    :meth:`build` makes the network of a config in a fresh simulator,
    :meth:`run` runs it to the config's horizon and :meth:`result`
    extracts the paper's metrics; :func:`run_scenario` is exactly those
    three calls.  :func:`build_network` fills in a network for a
    simulator the caller made.

    Per-node collections are struct-of-arrays style: flat lists indexed
    by node id (deployments are validated contiguous ``0..n-1`` by the
    topology registry), and all energy accounting lives in one shared
    :class:`~repro.energy.meter.MeterBank` whose per-node views populate
    :attr:`meters`.  Stacks a model does not build stay empty (e.g. no
    high radios in the sensor-only model).
    """

    def __init__(self, config: ScenarioConfig, sim: Simulator) -> None:
        self.config = config
        self.sim = sim
        self.layout: Layout | None = None
        self.meter_bank: MeterBank | None = None
        self.meters: list[NodeMeter] = []
        self.low_radios: list[LowPowerRadio] = []
        self.high_radios: list[HighPowerRadio] = []
        self.low_macs: list[SensorCsmaMac] = []
        self.high_macs: list[DcfMac] = []
        self.agents: list[typing.Any] = []
        self.sources: list[typing.Any] = []
        self.collector: SinkCollector | None = None
        self.mediums: list[Medium] = []
        #: Routing tables by tier name ("low"/"high") and the chosen
        #: sender set — recorded for the fault injector's epoch
        #: invalidation and partition checks.
        self.route_tables: dict[str, RoutingLike] = {}
        self.senders: list[int] = []
        #: BCP agents that pull their CBR source's packets on demand
        #: (:meth:`~repro.core.bcp.BcpAgent.adopt`).
        self.fed_agents: list[BcpAgent] = []
        #: The run's fault injector; None without a fault plan.
        self.injector: FaultInjector | None = None

    @staticmethod
    def build(config: ScenarioConfig) -> "Network":
        """Build ``config``'s network in a fresh simulator seeded with
        ``config.seed``, timed as the ``network_build`` phase."""
        sim = Simulator(seed=config.seed)
        with phase("network_build"):
            return build_network(config, sim)

    def run(self) -> None:
        """Run to ``config.sim_time_s`` under the config's fault plan,
        timed as the ``sim_loop`` phase."""
        config = self.config
        # A zero/absent plan skips the injector entirely: the no-fault path
        # builds no batteries, schedules no events and adds no counters, so
        # the pinned golden digests are untouched byte for byte.
        if config.faults is not None and not config.faults.is_zero:
            self.injector = FaultInjector(self.sim, config, self, config.faults)
        with phase("sim_loop"):
            self.sim.run(until=config.sim_time_s)
            # The run processed every event at the horizon itself, so
            # packets due exactly then count as generated too.
            for agent in self.fed_agents:
                agent.catch_up(inclusive=True)

    def result(self) -> RunResult:
        """The paper's metrics of the finished run."""
        config = self.config
        collector = self.collector
        assert collector is not None
        counters = _collect_counters(self)
        if self.injector is not None:
            counters.update(self.injector.counters())
        return RunResult(
            model=config.model,
            sim_time_s=config.sim_time_s,
            generated_bits=float(
                sum(source.stats.bits_generated for source in self.sources)
            ),
            delivered_bits=float(collector.bits_delivered),
            mean_delay_s=collector.mean_delay_s,
            max_delay_s=collector.max_delay_s,
            energy_j=_collect_energy(config, self),
            counters=counters,
            mean_hops=collector.mean_hops,
        )


def select_senders(config: ScenarioConfig, sim: Simulator) -> list[int]:
    """Choose which nodes send: a seeded random sample of non-sink nodes.

    Nodes named in ``traffic_mix`` always send — naming a traffic source
    for a node that then stays silent would make the mix silently inert —
    and the remaining slots are sampled randomly.  With
    ``n_senders == n_nodes - 1`` (the paper's 35-sender point) every
    non-sink node sends, making the choice deterministic.
    """
    candidates = [node for node in range(config.n_nodes) if node != config.sink]
    if config.n_senders >= len(candidates):
        return candidates
    forced = [node for node, _name in config.traffic_mix]
    rng = sim.rng.stream("scenario.senders")
    sampled = rng.sample(
        [node for node in candidates if node not in forced],
        config.n_senders - len(forced),
    )
    return sorted(forced + sampled)


def _propagation_for(
    config: ScenarioConfig, sim: Simulator, layout: Layout, channel: str
) -> typing.Any:
    """The channel's propagation model, or ``None`` for the default.

    ``None`` (rather than an explicit unit-disc instance) keeps the
    no-spec path identical to the historical construction: no extra rng
    stream is created and the medium builds its own default.
    """
    if config.propagation is None:
        return None
    return build_propagation(
        config.propagation,
        layout,
        rng=sim.rng.stream(f"channel.{channel}.prop"),
    )


def _audibility_graph(layout: Layout, medium: Medium) -> CsrGraph:
    """The links the medium can actually carry this run.

    With a non-default propagation model the nominal range lies: a
    log-normal fade can mute a 40 m link for the whole run, and routing a
    flow across it would silently deliver nothing.  The medium's neighbor
    index *is* the per-run audibility (per-node ranges and per-run link
    gains included), so the routing graph keeps its links — only the
    bidirectional ones, since every tier's protocols need the reverse
    direction (CSMA acks, BCP's wakeup handshake).
    """
    links = [
        (a, b)
        for a in layout.node_ids
        for b in medium.neighbors(a)
        if a < b and medium.is_neighbor(b, a)
    ]
    return CsrGraph.from_links(layout.node_ids, links)


def _residual_reader(
    config: ScenarioConfig, built: Network
) -> typing.Callable[[int], float]:
    """Node id → live remaining-battery fraction, for residual routing.

    Capacities come from the fault plan when it arms batteries (so the
    policy and the injector's death poll agree on the reservoir) and
    default to an AA pair otherwise.  The closure reads the built
    network's meter bank *live* — through the same flush-then-read helper
    the battery poll uses — so refreshed routes see exactly the depletion
    the injector bills.
    """
    plan = config.faults
    default_capacity = AA_PAIR_CAPACITY_J
    overrides: dict[int, float] = {}
    if plan is not None:
        if plan.battery_capacity_j is not None:
            default_capacity = plan.battery_capacity_j
        overrides = dict(plan.battery_overrides)

    def fraction(node: int) -> float:
        bank = built.meter_bank
        if bank is None:  # pragma: no cover - bank exists before routing
            return 1.0
        capacity = overrides.get(node, default_capacity)
        return live_residual_fraction(bank, built.high_radios, node, capacity)

    return fraction


def _route_table(
    config: ScenarioConfig,
    built: Network,
    medium: Medium,
    spec: RadioSpec,
    uniform: bool,
    stream: str,
) -> RoutingLike:
    """One tier's routing table, drawing ties from rng ``stream``.

    A ``uniform`` tier (every radio of ``spec``'s range, on the paper's
    unit-disc channel) routes over the nominal-range graph; mixed fleets
    and shadowed channels over the links the medium will actually carry
    (:func:`_audibility_graph`).  Non-``hops`` policies route with the
    Dijkstra cost engine, ``hops`` with the BFS engine in the tie-break
    scheme :meth:`ScenarioConfig.routing_engine` resolves.
    """
    layout = built.layout
    assert layout is not None and built.sim is not None
    rng = built.sim.rng.stream(stream)
    with phase("routing_build"):
        if uniform:
            graph = CsrGraph.from_layout(layout, spec.range_m)
        else:
            graph = _audibility_graph(layout, medium)
        if config.routing_policy != POLICY_HOPS:
            # Every cost model draws from one per-tier flyweight: the
            # shared first-order energy model, this tier's on-air packet
            # size, and the live residual reader (static policies ignore
            # it).
            context = RoutingPolicyContext(
                energy_model=FIRST_ORDER_RADIO_MODEL,
                packet_bits=(config.payload_bytes + spec.header_bytes)
                * BITS_PER_BYTE,
                residual_fraction=_residual_reader(config, built),
            )
            cost_model = build_cost_model(config.routing_policy, context)
            assert cost_model is not None  # POLICY_HOPS never reaches here
            return DijkstraRoutingTable(graph, cost_model, layout, rng)
        return RoutingTable(
            graph, rng, threaded=config.routing_engine() == "eager"
        )


def _build_low_stack(
    config: ScenarioConfig, sim: Simulator, built: Network
) -> RoutingLike:
    layout = built.layout
    assert layout is not None
    loss_rng = sim.rng.stream("channel.low.loss")
    medium = Medium(
        sim,
        layout,
        name="low",
        loss=LossModel(config.loss_probability, loss_rng),
        capture_ratio=Medium.CC2420_CAPTURE_RATIO,
        propagation=_propagation_for(config, sim, layout, "low"),
    )
    built.mediums.append(medium)
    low_spec = config.low_spec
    meters = built.meters
    for node in range(config.n_nodes):
        radio = LowPowerRadio(sim, node, low_spec, medium, meters[node])
        built.low_radios.append(radio)
        built.low_macs.append(SensorCsmaMac(sim, radio))
    return _route_table(
        config, built, medium, low_spec,
        uniform=config.propagation is None, stream="routing.low",
    )


def _build_high_stack(
    config: ScenarioConfig, sim: Simulator, built: Network
) -> RoutingLike:
    layout = built.layout
    assert layout is not None
    loss_rng = sim.rng.stream("channel.high.loss")
    medium = Medium(
        sim,
        layout,
        name="high",
        loss=LossModel(config.loss_probability, loss_rng),
        propagation=_propagation_for(config, sim, layout, "high"),
    )
    built.mediums.append(medium)
    meters = built.meters
    # The homogeneous fleet shares one spec object; only an explicit
    # assignment pays the per-node resolution.
    uniform_spec = (
        config.effective_high_spec() if config.high_radios is None else None
    )
    for node in range(config.n_nodes):
        spec = (
            uniform_spec
            if uniform_spec is not None
            else config.high_spec_for(node)
        )
        radio = HighPowerRadio(sim, node, spec, medium, meters[node])
        built.high_radios.append(radio)
        built.high_macs.append(DcfMac(sim, radio))
    return _route_table(
        config, built, medium, config.effective_high_spec(),
        uniform=config.high_radios is None and config.propagation is None,
        stream="routing.high",
    )


def _check_sender_routes(
    config: ScenarioConfig,
    senders: typing.Sequence[int],
    tables: typing.Mapping[str, RoutingLike],
) -> None:
    """Fail fast (and helpfully) when a sender cannot reach the sink.

    The paper's grid is connected at the sensor range by construction, so
    this never fires for paper scenarios; composed deployments (random
    placements, shrunken ranges, mixed fleets) can produce partitioned
    tiers, and a clear error beats a mid-run RoutingError traceback.
    """
    for name, table in tables.items():
        unreachable = table.unreachable(senders, config.sink)
        if unreachable:
            raise ValueError(
                f"senders {unreachable} cannot reach sink {config.sink} over "
                f"the {name} radio tier: the deployment is partitioned at "
                "that tier's range.  Densify the layout, enlarge the field's "
                "connect_range_m (keep it within the radio range), or pick "
                "longer-range radios."
            )


def build_network(config: ScenarioConfig, sim: Simulator) -> Network:
    """Construct the full network for ``config`` inside ``sim``.

    Per-node construction is flyweight-shaped: all class-level data (BCP
    config, routing tables, MAC parameters, delivery callbacks) is built
    once and shared, per-node energy state lives in one struct-of-arrays
    :class:`~repro.energy.meter.MeterBank`, and the loop that stamps out
    nodes allocates only each node's identity-bearing objects (radios,
    MACs, the agent shell).  That is what makes a 10k-node composed
    scenario a seconds-scale build (see ``repro bench``'s
    ``scenario-compose-10k`` case).
    """
    built = Network(config, sim)
    built.layout = config.build_layout(sim)
    n_nodes = config.n_nodes
    built.meter_bank = MeterBank(n_nodes)
    built.meters = [built.meter_bank.meter(node) for node in range(n_nodes)]
    built.collector = SinkCollector(sim, config.sink)

    route_tables: dict[str, RoutingLike] = {}
    if config.model == MODEL_SENSOR:
        low_table = _build_low_stack(config, sim, built)
        route_tables["low"] = low_table
        for node in range(n_nodes):
            built.agents.append(
                ForwardingAgent(
                    sim,
                    node,
                    built.low_macs[node],
                    low_table,
                    built.collector.deliver_many,
                )
            )
    elif config.model == MODEL_WIFI:
        high_table = _build_high_stack(config, sim, built)
        route_tables["high"] = high_table
        for node in range(n_nodes):
            built.high_radios[node].wake()
            built.agents.append(
                ForwardingAgent(
                    sim,
                    node,
                    built.high_macs[node],
                    high_table,
                    built.collector.deliver_many,
                )
            )
    else:  # MODEL_DUAL
        low_table = _build_low_stack(config, sim, built)
        high_table = _build_high_stack(config, sim, built)
        route_tables["low"] = low_table
        route_tables["high"] = high_table
        address_map = AddressMap()
        for node in range(n_nodes):
            address_map.register_node(node, has_high_radio=True)
        # Two node classes exist in a paper scenario, so two shared
        # flyweights cover the whole fleet: the sink is the collection
        # point — packets addressed to it are consumed on arrival, never
        # re-buffered — so it advertises the flow control of a host-class
        # basestation (unbounded buffer) rather than reserving mote RAM
        # for data that never lands.  Everyone else shares one mote
        # config.  Specs are immutable by contract (see
        # :class:`~repro.core.bcp.BcpNodeSpec`).
        node_config = BcpConfig.for_burst_packets(
            config.burst_packets,
            packet_payload_bytes=config.payload_bytes,
            buffer_capacity_bytes=float(
                config.buffer_packets * config.payload_bytes
            ),
            wakeup_timeout_s=config.wakeup_timeout_s,
            receiver_idle_timeout_s=config.receiver_idle_timeout_s,
            idle_linger_s=config.idle_linger_s,
            flow_control=config.flow_control,
            shortcut_learning=config.shortcut_learning,
            shortcut_observation=config.shortcut_observation,
        )
        node_spec = BcpNodeSpec(
            sim=sim,
            config=node_config,
            low_routing=low_table,
            high_routing=high_table,
            deliver=built.collector.deliver_many,
            address_map=address_map,
        )
        sink_spec = dataclasses.replace(
            node_spec,
            config=dataclasses.replace(
                node_config, buffer_capacity_bytes=float("inf")
            ),
        )
        sink = config.sink
        low_macs, high_macs = built.low_macs, built.high_macs
        high_radios = built.high_radios
        for node in range(n_nodes):
            built.agents.append(
                BcpAgent.from_spec(
                    sink_spec if node == sink else node_spec,
                    node,
                    low_macs[node],
                    high_macs[node],
                    high_radios[node],
                )
            )

    built.route_tables = route_tables
    senders = select_senders(config, sim)
    built.senders = senders
    _check_sender_routes(config, senders, route_tables)
    for sender in senders:
        agent = built.agents[sender]
        source = build_source(
            config.traffic_for(sender), sim, sender, agent.submit, config
        )
        built.sources.append(source)
        if (
            isinstance(agent, BcpAgent)
            and isinstance(source, CbrSource)
            and agent.adopt(source)
        ):
            built.fed_agents.append(agent)
    return built


def _collect_energy(config: ScenarioConfig, built: Network) -> dict[str, float]:
    low_component = f"radio.{config.low_spec.name}"
    ideal = header = full_low = high_full = 0.0
    for radio in built.high_radios:
        radio.flush_accounting()
    bank = built.meter_bank
    assert bank is not None
    # Node-major accumulation, each node's terms in its own first-charge
    # order: float addition is not associative, and this is exactly the
    # summation order of the historical per-node meters — the pinned
    # golden digests encode it to the last ulp.
    uniform_high = (
        f"radio.{config.effective_high_spec().name}"
        if config.high_radios is None
        else None
    )
    for node in range(config.n_nodes):
        ideal += bank.total_for(node, low_component, categories=("tx", "rx"))
        header_part = bank.total_for(
            node, low_component, categories=(CATEGORY_OVERHEAR_HEADER,)
        )
        body_part = bank.total_for(
            node, low_component, categories=(CATEGORY_OVERHEAR_BODY,)
        )
        header += header_part
        full_low += header_part + body_part
        # Heterogeneous fleets meter each node under its own NIC's
        # component name; resolve per node (one shared name when no
        # assignment is configured).
        high_component = (
            uniform_high
            if uniform_high is not None
            else f"radio.{config.high_spec_for(node).name}"
        )
        high_full += bank.total_for(node, high_component)
    energy = {
        ENERGY_SENSOR_IDEAL: ideal,
        ENERGY_SENSOR_HEADER: ideal + header,
        ENERGY_SENSOR_FULL: ideal + full_low,
        ENERGY_LOW_RADIO: ideal,
        ENERGY_HIGH_RADIO: high_full,
    }
    if config.model == MODEL_SENSOR:
        energy[ENERGY_TOTAL] = energy[ENERGY_SENSOR_IDEAL]
    elif config.model == MODEL_WIFI:
        energy[ENERGY_TOTAL] = high_full
    else:
        # Section 4: the dual-radio model charges the sensor radio ideally
        # (tx+rx, including relayed control) and the 802.11 radio fully.
        energy[ENERGY_TOTAL] = ideal + high_full
    return energy


def _collect_counters(built: Network) -> dict[str, float]:
    counters: dict[str, float] = {}

    def bump(name: str, value: float) -> None:
        counters[name] = counters.get(name, 0.0) + value

    for medium in built.mediums:
        prefix = f"medium.{medium.name}"
        bump(f"{prefix}.sent", medium.frames_sent)
        bump(f"{prefix}.delivered", medium.frames_delivered)
        bump(f"{prefix}.collided", medium.frames_collided)
        bump(f"{prefix}.lost", medium.frames_lost)
    for mac in built.low_macs + built.high_macs:
        bump("mac.retransmissions", mac.retransmissions)
        bump("mac.sent_failed", mac.sent_failed)
        bump("mac.queue_drops", mac.queue_drops)
        bump("mac.acks_dropped", mac.acks_dropped)
    for agent in built.agents:
        if isinstance(agent, BcpAgent):
            stats = agent.stats
            bump("bcp.wakeups", stats.wakeups_sent)
            bump("bcp.acks", stats.acks_sent)
            bump("bcp.handshake_failures", stats.handshakes_failed)
            bump("bcp.bursts", stats.bursts_completed)
            bump("bcp.buffer_drops", stats.packets_dropped_buffer)
            bump("bcp.mac_losses", stats.packets_lost_mac)
            bump("bcp.receiver_timeouts", stats.receiver_timeouts)
            if agent.shortcuts is not None:
                bump("bcp.shortcuts_learned", agent.shortcuts.shortcuts_learned)
        elif isinstance(agent, ForwardingAgent):
            bump("fwd.dropped", agent.packets_dropped)
            bump("fwd.unroutable", agent.packets_unroutable)
    return counters


def run_scenario(config: ScenarioConfig) -> RunResult:
    """Run one scenario to completion and extract the paper's metrics.

    When a :func:`repro.perf.phases.collect_phases` collector is active,
    the run reports ``network_build`` (which includes ``routing_build``)
    and ``sim_loop`` wall-clock phases into it.
    """
    network = Network.build(config)
    network.run()
    return network.result()


def replica_configs(config: ScenarioConfig, n_runs: int) -> list[ScenarioConfig]:
    """The ``n_runs`` replica configs of one cell: consecutive seeds.

    Each replica is a complete, independent config — the unit of work the
    runner executes and the cache keys on.
    """
    if n_runs < 1:
        raise ValueError("need at least one run")
    return [config.replace(seed=config.seed + offset) for offset in range(n_runs)]


def run_replicated(
    config: ScenarioConfig,
    n_runs: int = 20,
    energy_key: str = ENERGY_TOTAL,
    runner: "SweepRunner | None" = None,
) -> tuple[list[RunResult], ReplicatedSummary]:
    """Run ``n_runs`` seeds of ``config`` and summarize with 95% CIs.

    ``runner`` may be a :class:`~repro.runner.SweepRunner` to parallelize
    or cache the replicas; the default runner (serial unless
    ``$REPRO_JOBS`` says otherwise) is bit-identical to in-process
    execution.
    """
    from repro.runner.executor import SweepRunner

    runner = runner or SweepRunner()
    results = runner.map(
        run_scenario,
        replica_configs(config, n_runs),
        describe=lambda _i, c: f"{c.model} senders={c.n_senders} seed={c.seed}",
    )
    return results, summarize_runs(results, energy_key=energy_key)
