"""Measure one workload: untraced cells for the end-to-end metrics, one
profiled cell for the per-layer split.

Load is closed-loop: one ``run_scenario`` call at a time, in this one
process, with no threads.  A run's input is a panel of :data:`PANEL`
cells that ``--seed`` draws from the workload's pinned pool
(:mod:`perfbench.pins`): a single scenario seed fixes the senders and the
deployment, which moves a cell's work, so a run averages over a few.
The run goes round the panel cells back to back, each preceded by
set-up samples, in full rounds while another round fits in the time
budget (at least one).  Every cell run, untraced or traced, must give its
pinned ``RunResult`` digest.
"""

from __future__ import annotations

import contextlib
import cProfile
import gc
import math
import os
import pstats
import random
import resource
import statistics
import sys
import time
import traceback
import typing

import repro
from repro import Simulator, run_scenario
from repro.channel.index import NeighborIndex
from repro.models import scenario as scenario_module
from repro.perf.phases import collect_phases

from perfbench import pins
from perfbench.hostspeed import HostSpeed, normalised
from perfbench.layers import LAYERS, OTHER, LayerSplit
from perfbench.workloads import Workload

#: Cells in a run's panel, drawn from the workload's pinned pool.
PANEL = 3

#: Runs of back-to-back builds in one set-up sample.
SETUP_SAMPLES = 3

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_COUNT = "count"
_RATIO = "ratio"
#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER = {
    "sim.events": _COUNT,
    "sim.events_cancelled": _COUNT,
    "sim.events_per_frame": _RATIO,
    "channel.frames_sent": _COUNT,
    "channel.frames_collided": _COUNT,
    "channel.frames_lost": _COUNT,
    "channel.delivered_per_sent": _RATIO,
    "channel.index_build_s": "s",
    "channel.index_repairs": _COUNT,
    "mac.sends": _COUNT,
    "mac.retransmissions": _COUNT,
    "mac.sent_failed": _COUNT,
    "mac.queue_drops": _COUNT,
    "mac.acks_dropped": _COUNT,
    "mac.retries_per_frame": _RATIO,
    "radio.transmits": _COUNT,
    "radio.wakes": _COUNT,
    "energy.fanout_calls": _COUNT,
    "core.submits": _COUNT,
    "core.wakeups": _COUNT,
    "core.bursts": _COUNT,
    "core.handshake_failures": _COUNT,
    "core.buffer_drops": _COUNT,
    "core.packets_per_burst": _RATIO,
    "net.route_queries": _COUNT,
    "net.trees": _COUNT,
    "net.routing_build_s": "s",
    "faults.deaths": _COUNT,
    "faults.epochs": _COUNT,
    "faults.power_down_drops": _COUNT,
    "faults.unroutable_drops": _COUNT,
    "traffic.packets": _COUNT,
    "stats.deliveries": _COUNT,
    **{f"{layer}.self_s": "s" for layer in (*LAYERS, OTHER)},
    "trace.wall_s": "s",
    "trace.attributed_ratio": _RATIO,
    "trace.overhead_ratio": _RATIO,
    "model.energy_per_bit_uj": "uJ/bit",
    "model.delivery_ratio": _RATIO,
    "model.mean_delay_s": "sim_s",
}


class Cell(typing.NamedTuple):
    """One timed ``run_scenario`` call of panel cell ``index``."""

    index: int
    result: typing.Any
    #: Host wall, less the host-speed probes' own time.
    wall_s: float
    phases: dict[str, float]
    index_build_s: float


class Traced(typing.NamedTuple):
    """The profiled cell: its wall, layer split, result and network."""

    wall_s: float
    split: LayerSplit
    result: typing.Any
    built: typing.Any


@contextlib.contextmanager
def _timed_index_builds(sink: list[float]) -> typing.Iterator[None]:
    """Record the wall of every ``NeighborIndex`` construction.

    The medium builds its index lazily, on the first transmit — inside
    the event loop, not inside ``build_network`` — so set-up time never
    sees it; this is how the benchmark reports it on its own.
    """
    original = NeighborIndex.__init__

    def timed(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            original(self, *args, **kwargs)
        finally:
            sink.append(time.perf_counter() - start)

    NeighborIndex.__init__ = timed
    try:
        yield
    finally:
        NeighborIndex.__init__ = original


@contextlib.contextmanager
def capture_network(sink: list[typing.Any]) -> typing.Iterator[None]:
    """Keep the network ``run_scenario`` builds, for its public counters."""
    original = scenario_module.build_network

    def capturing(config, sim):
        built = original(config, sim)
        sink.append(built)
        return built

    scenario_module.build_network = capturing
    try:
        yield
    finally:
        scenario_module.build_network = original


@contextlib.contextmanager
def _own_garbage_only() -> typing.Iterator[None]:
    """Collect, then freeze every live object until the block ends.

    The collector then only walks what the block itself allocates, so a
    timed region pays for its own garbage and not for whatever earlier
    cells left on the heap.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def _setup_sample(config: typing.Any, repeats: int, speed: HostSpeed) -> float:
    """Wall per ``build_network`` call (the ``network_build`` phase) of
    ``repeats`` back-to-back builds of ``config``."""
    sims = [Simulator(seed=config.seed) for _ in range(repeats)]
    with _own_garbage_only():
        start = speed.clock()
        for sim in sims:
            scenario_module.build_network(config, sim)
        return (speed.clock() - start) / repeats


def check_result(result: typing.Any, expected_deaths: int) -> list[str]:
    """The model-output invariants every cell must satisfy."""
    problems = []
    if not result.delivered_bits <= result.generated_bits:
        problems.append(
            f"delivered {result.delivered_bits} > generated {result.generated_bits} bits"
        )
    counters = result.counters
    for key, sent in counters.items():
        if key.startswith("medium.") and key.endswith(".sent"):
            delivered = counters[key[: -len("sent")] + "delivered"]
            if not delivered <= sent:
                problems.append(f"{key}: delivered {delivered} > sent {sent}")
    if expected_deaths:
        for key in ("faults.deaths", "faults.epochs"):
            if counters.get(key) != expected_deaths:
                problems.append(f"{key} = {counters.get(key)}, expected {expected_deaths}")
    return problems


class Run:
    """One benchmark run: its panel, and the cells attempted and failed."""

    def __init__(self, workload: Workload, seed: int, tiny: bool):
        self.workload = workload
        self.panel = random.Random(seed).sample(pins.pool(workload.name, tiny), PANEL)
        self.configs = [workload.build(pin["seed"], tiny) for pin in self.panel]
        self.expected_deaths = workload.expected_deaths(tiny)
        self.attempted = 0
        self.failed = 0

    def judge(self, index: int, result: typing.Any) -> bool:
        """Count one attempted cell; False (and a stderr note) if it fails."""
        self.attempted += 1
        problems = check_result(result, self.expected_deaths)
        problems += pins.mismatch(self.panel[index], result)
        for problem in problems:
            print(f"{self.workload.name}: {problem}", file=sys.stderr)
        self.failed += bool(problems)
        return not problems

    def crashed(self) -> None:
        self.attempted += 1
        self.failed += 1
        traceback.print_exc(file=sys.stderr)

    def run_cell(self, index: int, speed: HostSpeed) -> Cell:
        """Run panel cell ``index`` once, untraced, and time it."""
        index_builds: list[float] = []
        with (
            collect_phases() as phases,
            _timed_index_builds(index_builds),
            _own_garbage_only(),
        ):
            start = speed.clock()
            result = run_scenario(self.configs[index])
            wall = speed.clock() - start
        return Cell(index, result, wall, dict(phases), sum(index_builds))

    def profile_cell(self) -> Traced:
        """Panel cell 0 once more, under cProfile."""
        captured: list[typing.Any] = []
        profiler = cProfile.Profile()
        with capture_network(captured):
            start = time.perf_counter()
            profiler.enable()
            try:
                result = run_scenario(self.configs[0])
            finally:
                profiler.disable()
            wall = time.perf_counter() - start
        self.judge(0, result)
        split = LayerSplit(pstats.Stats(profiler), os.path.dirname(repro.__file__))
        return Traced(wall, split, result, captured[0])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def measure(run: Run, seconds: float) -> tuple[dict[int, list[float]], dict[int, list[float]]]:
    """Set-up samples and untraced cell walls, by panel cell, in seconds
    at the reference host speed (:mod:`perfbench.hostspeed`).

    The run goes round the panel in laps while another lap fits in
    ``seconds``, and always ends on a full round.  A lap is a set-up
    sample of one panel network, then one run of that cell, both read
    against the host-speed probes taken through it.  One build
    takes 5-70 ms, too short to time on its own, so a set-up sample
    times :data:`SETUP_SAMPLES` runs of ``setup_repeats`` back-to-back
    builds and reports the wall per build.
    """
    start = time.perf_counter()
    speed = HostSpeed()
    repeats = run.workload.setup_repeats
    setups: dict[int, list[float]] = {}
    walls: dict[int, list[float]] = {}
    laps: list[float] = []
    while len(laps) % PANEL or (
        not laps
        or time.perf_counter() - start + PANEL * statistics.median(laps) < seconds
    ):
        lap = time.perf_counter()
        index = len(laps) % PANEL
        try:
            with speed.probing() as setup_probes:
                build = statistics.fmean(
                    _setup_sample(run.configs[index], repeats, speed)
                    for _ in range(SETUP_SAMPLES)
                )
            with speed.probing() as cell_probes:
                cell = run.run_cell(index, speed)
        except Exception:  # a crashing cell crashes every time: stop
            run.crashed()
            return setups, {}
        laps.append(time.perf_counter() - lap)
        if run.judge(index, cell.result):
            setups.setdefault(index, []).append(normalised(build, setup_probes))
            walls.setdefault(index, []).append(normalised(cell.wall_s, cell_probes))
    return setups, walls


def end_to_end(setups: dict[int, list[float]], walls: dict[int, list[float]]) -> dict[str, float]:
    """``wall_s`` and ``setup_s`` are each the mean over panel cells of
    the median of the cell's samples.

    The mean over cells keeps the panel's mix fixed however many rounds
    fit.
    """
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": statistics.fmean(statistics.median(w) for w in walls.values()),
        "setup_s": statistics.fmean(statistics.median(s) for s in setups.values()),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def per_layer(cell: Cell, traced: Traced) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric of panel cell 0.

    Counts come from the traced run (they are deterministic, so any run
    of the cell gives the same); timings other than ``*.self_s`` and
    ``trace.wall_s`` come from ``cell``, one untraced run of the cell.
    """
    result, built, split = traced.result, traced.built, traced.split
    counters = result.counters
    sim = built.sim
    mediums = built.mediums
    frames_sent = sum(m.frames_sent for m in mediums)
    macs = built.low_macs + built.high_macs
    mac_sends = sum(m.sent_ok + m.sent_failed for m in macs)
    bcp_agents = [agent for agent in built.agents if hasattr(agent, "stats")]
    bursts = counters.get("bcp.bursts", 0.0)
    out = {
        "sim.events": sim.events_processed,
        "sim.events_cancelled": sim.events_cancelled,
        "sim.events_per_frame": _ratio(sim.events_processed, frames_sent),
        "channel.frames_sent": frames_sent,
        "channel.frames_collided": sum(m.frames_collided for m in mediums),
        "channel.frames_lost": sum(m.frames_lost for m in mediums),
        "channel.delivered_per_sent": _ratio(
            sum(m.frames_delivered for m in mediums), frames_sent
        ),
        "channel.index_build_s": cell.index_build_s,
        "channel.index_repairs": sum(m.topology_epoch for m in mediums),
        "mac.sends": mac_sends,
        "mac.retransmissions": counters["mac.retransmissions"],
        "mac.sent_failed": counters["mac.sent_failed"],
        "mac.queue_drops": counters["mac.queue_drops"],
        "mac.acks_dropped": counters["mac.acks_dropped"],
        "mac.retries_per_frame": _ratio(counters["mac.retransmissions"], mac_sends),
        "radio.transmits": sum(
            r.frames_tx for r in built.low_radios + built.high_radios
        ),
        "radio.wakes": sum(r.wakeup_count for r in built.high_radios),
        "energy.fanout_calls": split.calls(
            "energy", "apply_fanout", "charge_reception_fanout"
        ),
        "core.submits": split.calls("core", "submit"),
        "core.wakeups": counters.get("bcp.wakeups", 0.0),
        "core.bursts": bursts,
        "core.handshake_failures": counters.get("bcp.handshake_failures", 0.0),
        "core.buffer_drops": counters.get("bcp.buffer_drops", 0.0),
        "core.packets_per_burst": _ratio(
            sum(agent.stats.packets_sent for agent in bcp_agents), bursts
        ),
        "net.route_queries": split.calls("net", "has_route", "next_hop", "hops"),
        # The eager engine has no counter: it builds every node's tree.
        "net.trees": sum(
            getattr(table, "trees_computed", len(built.agents))
            for table in built.route_tables.values()
        ),
        "net.routing_build_s": cell.phases.get("routing_build", 0.0),
        "faults.deaths": counters.get("faults.deaths", 0.0),
        "faults.epochs": counters.get("faults.epochs", 0.0),
        "faults.power_down_drops": counters.get("faults.power_down_drops", 0.0),
        "faults.unroutable_drops": counters.get("faults.unroutable_drops", 0.0),
        "traffic.packets": sum(s.stats.packets_generated for s in built.sources),
        "stats.deliveries": built.collector.packets_delivered,
        **{f"{layer}.self_s": seconds for layer, seconds in split.self_s.items()},
        "trace.wall_s": traced.wall_s,
        "trace.attributed_ratio": _ratio(sum(split.self_s.values()), traced.wall_s),
        "trace.overhead_ratio": _ratio(traced.wall_s, cell.wall_s),
        **{f"model.{key}": value for key, value in pins.model_outputs(result).items()},
    }
    return {name: float(value) for name, value in out.items()}


def benchmark(
    workload: Workload, seed: int, seconds: float, trace: bool, tiny: bool = False
) -> dict[str, typing.Any]:
    """One benchmark run; the JSON object ``run.py`` prints."""
    run = Run(workload, seed, tiny)
    metrics: dict[str, float] = {}
    units = PER_LAYER if trace else END_TO_END
    if trace:
        # One untraced run of panel cell 0 for the timings the traced
        # split is read against, then the profiled run of the same cell.
        try:
            cell = run.run_cell(0, HostSpeed())
            if run.judge(0, cell.result):
                metrics = per_layer(cell, run.profile_cell())
        except Exception:
            run.crashed()
    else:
        setups, walls = measure(run, seconds)
        if len(walls) == PANEL:
            metrics = end_to_end(setups, walls)
    if any(not math.isfinite(value) for value in metrics.values()):
        run.failed += 1
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
