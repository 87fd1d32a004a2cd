"""Text rendering for single-scenario runs (the ``repro run`` artifact).

The figure renderers aggregate whole sweeps; ``repro run`` executes one
composed cell (possibly replicated over seeds) and wants a compact,
self-describing block: what was composed (topology, propagation, radios,
traffic), what came out (goodput, energy, delay with CIs), and the channel
counters that explain *why* (collisions, losses, BCP handshakes).
"""

from __future__ import annotations

import typing

from repro.report.tables import format_value, render_table
from repro.stats.metrics import ENERGY_TOTAL, RunResult, merge_counters
from repro.stats.summation import ltr_sum
from repro.stats.summary import ReplicatedSummary

if typing.TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.models.scenario import ScenarioConfig


def describe_composition(config: "ScenarioConfig") -> list[str]:
    """Human lines describing the config's composition axes."""
    if config.topology is None:
        topology = (
            f"grid({config.rows}x{config.cols}, "
            f"spacing={config.spacing_m:g} m)"
        )
    else:
        topology = config.topology.describe()
    propagation = (
        "unit-disc (paper default)"
        if config.propagation is None
        else config.propagation.describe()
    )
    if config.high_radios is None:
        radios = config.effective_high_spec().name
    else:
        assignment = config.high_radios
        default = assignment.default or config.effective_high_spec().name
        parts = [f"default={default}"]
        parts += [f"node {node}={name}" for node, name in assignment.overrides]
        radios = ", ".join(parts)
    traffic = config.traffic
    if config.traffic_mix:
        mix = ", ".join(f"node {node}={name}" for node, name in config.traffic_mix)
        traffic = f"{traffic} ({mix})"
    if config.routing_policy == "hops":
        routing = f"hops ({config.routing_engine()} tie-break)"
    else:
        routing = f"{config.routing_policy} (dijkstra engine)"
    return [
        f"model       : {config.model}",
        f"topology    : {topology}  ({config.n_nodes} nodes, sink {config.sink})",
        f"propagation : {propagation}",
        f"high radio  : {radios}",
        f"low radio   : {config.low_spec.name}",
        f"routing     : {routing}",
        f"traffic     : {traffic}  ({config.n_senders} senders at "
        f"{config.rate_bps:g} b/s)",
        f"burst       : {config.burst_packets} packets, buffer "
        f"{config.buffer_packets} packets",
    ]


def _counter_rows(results: typing.Sequence[RunResult]) -> list[list[object]]:
    counters = merge_counters(*(result.counters for result in results))
    interesting = (
        "medium.low.sent",
        "medium.low.collided",
        "medium.high.sent",
        "medium.high.collided",
        "medium.high.lost",
        "mac.retransmissions",
        "bcp.wakeups",
        "bcp.bursts",
        "bcp.handshake_failures",
        "bcp.buffer_drops",
        "fwd.dropped",
    )
    n = max(len(results), 1)
    return [
        [name, counters[name] / n] for name in interesting if name in counters
    ]


def _lifetime_lines(results: typing.Sequence[RunResult]) -> list[str]:
    """The network-lifetime block — present only on faulted runs.

    ``faults.*`` counters exist exactly when a non-trivial
    :class:`~repro.faults.plan.FaultPlan` ran, so fault-free reports are
    byte-identical to the pre-fault harness.
    """
    per_run = [
        result.counters
        for result in results
        if "faults.first_death_s" in result.counters
    ]
    if not per_run:
        return []
    first_deaths = [
        c["faults.first_death_s"]
        for c in per_run
        if c["faults.first_death_s"] >= 0.0
    ]
    n = len(per_run)
    lines = ["", "network lifetime", "----------------"]
    if first_deaths:
        lines.append(
            f"first death : {format_value(ltr_sum(first_deaths) / len(first_deaths))} s "
            f"mean over {len(first_deaths)}/{n} run(s) with deaths"
        )
    else:
        lines.append("first death : none (every node survived)")
    for label, key in (
        ("deaths      ", "faults.deaths"),
        ("  battery   ", "faults.battery_deaths"),
        ("recoveries  ", "faults.recoveries"),
        ("partitioned ", "faults.partitioned_epochs"),
        ("mac drops   ", "faults.power_down_drops"),
        ("unroutable  ", "faults.unroutable_drops"),
    ):
        total = ltr_sum(c.get(key, 0.0) for c in per_run)
        lines.append(f"{label}: {format_value(total / n)} per run")
    return lines


def _mean_first_death(results: typing.Sequence[RunResult]) -> float | None:
    """Mean first-node-death time over runs that saw one, else ``None``."""
    deaths = [
        result.counters["faults.first_death_s"]
        for result in results
        if result.counters.get("faults.first_death_s", -1.0) >= 0.0
    ]
    if not deaths:
        return None
    return ltr_sum(deaths) / len(deaths)


def render_policy_comparison(
    results_by_policy: typing.Mapping[str, typing.Sequence[RunResult]],
    baseline: str = "hops",
) -> str:
    """Per-policy energy and lifetime deltas against a baseline policy.

    One row per policy: mean fleet energy (with % delta vs ``baseline``)
    and mean first-node-death time (with delta in seconds; ``-`` when no
    node died).  The input maps policy name → that policy's replicated
    :class:`RunResult` list — ``repro run`` cells or the lifetime
    example's sweeps alike.
    """
    base_results = results_by_policy.get(baseline)
    base_energy = None
    base_death = None
    if base_results:
        base_energy = ltr_sum(
            result.energy_j[ENERGY_TOTAL] for result in base_results
        ) / len(base_results)
        base_death = _mean_first_death(base_results)
    rows: list[list[object]] = []
    for policy, results in results_by_policy.items():
        if not results:
            continue
        energy = ltr_sum(
            result.energy_j[ENERGY_TOTAL] for result in results
        ) / len(results)
        if base_energy:
            energy_delta = f"{(energy / base_energy - 1.0) * 100.0:+.1f}%"
        else:
            energy_delta = "-"
        death = _mean_first_death(results)
        death_cell = format_value(death) if death is not None else "-"
        if death is not None and base_death is not None:
            death_delta = f"{death - base_death:+g} s"
        else:
            death_delta = "-"
        rows.append(
            [policy, format_value(energy), energy_delta, death_cell, death_delta]
        )
    return render_table(
        (
            "policy",
            "energy (J)",
            f"vs {baseline}",
            "first death (s)",
            f"vs {baseline}",
        ),
        rows,
        title="routing policies",
    )


def render_run_report(
    config: "ScenarioConfig",
    results: typing.Sequence[RunResult],
    summary: ReplicatedSummary,
) -> str:
    """The full ``repro run`` text artifact."""
    lines = ["scenario", "--------"]
    lines += describe_composition(config)
    lines += [
        f"runs        : {summary.n_runs} seed(s) from {config.seed}, "
        f"{config.sim_time_s:g} s each",
        "",
        "results (mean +/- 95% CI)",
        "-------------------------",
    ]
    row = summary.row()
    lines.append(
        f"goodput     : {format_value(row['goodput'])} b/s "
        f"+/- {format_value(row['goodput_ci'])}"
    )
    lines.append(
        f"energy      : {format_value(row['energy_j_per_kbit'])} J/Kbit "
        f"+/- {format_value(row['energy_ci'])}"
    )
    lines.append(
        f"mean delay  : {format_value(row['delay_s'])} s "
        f"+/- {format_value(row['delay_ci'])}"
    )
    if summary.undelivered_runs:
        lines.append(
            f"undelivered : {summary.undelivered_runs}/{summary.n_runs} runs "
            "delivered nothing (excluded from energy)"
        )
    lines += _lifetime_lines(results)
    counter_rows = _counter_rows(results)
    if counter_rows:
        lines += ["", ""]
        lines.append(
            render_table(
                ("counter", "per-run mean"),
                counter_rows,
                title="channel / protocol counters",
            )
        )
    return "\n".join(lines)
