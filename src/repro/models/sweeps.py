"""Sweep orchestration for the evaluation figures (Figs. 5–10).

Each simulation figure is a view over the same experiment matrix:

* the **SH sweep** (Figs. 5–7): Lucent 11 Mb/s + Micaz, same tree for both
  radios, models {Sensor, 802.11, DualRadio-b for b in burst sizes} ×
  sender counts;
* the **MH sweep** (Figs. 8–10): Cabletron reaching the sink in one hop.

A sweep returns raw per-run results (:class:`SweepCell`) so the different
figures can apply their own metric/energy-accounting view: Fig. 6/9 plot
the sensor runs under *two* accountings (ideal and header-overhearing) and
the dual runs under the full dual accounting; Fig. 7/10 re-plot energy
against delay.

Scale note: the paper runs 5000 s × 20 seeds.  That is hours of CPU in
pure Python when run serially, so callers choose the scale; the defaults
here are laptop sized (the benchmark suite uses them) and `--paper` scale
is available via the CLI.  Shapes are stable across this range because
every mechanism (buffering delay, contention collapse, wake-up
amortization) operates identically — only confidence intervals widen.

The matrix is embarrassingly parallel: :func:`sweep_plan` lays out every
``(label, sender-count, seed)`` run as an independent
:class:`~repro.models.scenario.ScenarioConfig`, and :func:`run_sweep`
executes the batch through a :class:`~repro.runner.SweepRunner` — serial
by default, fanned over worker processes with ``jobs > 1``, and served
from the on-disk result cache when one is attached.  Results are
byte-identical either way.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.models.scenario import (
    MODEL_DUAL,
    MODEL_SENSOR,
    MODEL_WIFI,
    ScenarioConfig,
    multi_hop_config,
    replica_configs,
    single_hop_config,
)
from repro.models.scenario import run_scenario
from repro.runner.executor import SweepRunner
from repro.stats.metrics import (
    ENERGY_SENSOR_HEADER,
    ENERGY_SENSOR_IDEAL,
    ENERGY_TOTAL,
    RunResult,
)
from repro.stats.summary import ReplicatedSummary, summarize_runs

#: Label used for the pure models in the figures' legends.
LABEL_SENSOR = "Sensor"
LABEL_WIFI = "802.11"


def dual_label(burst: int) -> str:
    """Legend label for a dual-radio burst size (e.g. ``DualRadio-500``)."""
    return f"DualRadio-{burst}"


@dataclasses.dataclass
class SweepCell:
    """All replicated runs of one (model/burst, sender-count) cell."""

    results: list[RunResult]

    def summary(self, energy_key: str = ENERGY_TOTAL) -> ReplicatedSummary:
        """Mean ± CI of the cell under the given energy accounting."""
        return summarize_runs(self.results, energy_key=energy_key)

    def to_dicts(self) -> list[dict[str, typing.Any]]:
        """The cell's runs in canonical serialized form (cache payloads)."""
        from repro.runner.cache import result_to_dict

        return [result_to_dict(result) for result in self.results]


@dataclasses.dataclass
class SweepData:
    """The experiment matrix: label → sender count → cell."""

    case: str  # "SH" or "MH"
    rate_bps: float
    sim_time_s: float
    n_runs: int
    cells: dict[str, dict[int, SweepCell]]

    def labels(self) -> list[str]:
        """All series labels in insertion order."""
        return list(self.cells)

    def sender_counts(self) -> list[int]:
        """Sorted sender counts present in the sweep."""
        counts: set[int] = set()
        for per_count in self.cells.values():
            counts.update(per_count)
        return sorted(counts)


@dataclasses.dataclass
class SweepScale:
    """How big to run a sweep.

    The defaults are the benchmark scale; :meth:`paper` is the full
    Section 4.1 parameterization.
    """

    senders: tuple[int, ...] = (5, 20, 35)
    bursts: tuple[int, ...] = (10, 100, 500, 1000, 2500)
    n_runs: int = 2
    sim_time_s: float = 150.0
    seed: int = 1

    @classmethod
    def paper(cls) -> "SweepScale":
        """The paper's scale: all sender counts, 5000 s, 20 runs."""
        return cls(
            senders=(5, 10, 15, 20, 25, 30, 35),
            bursts=(10, 100, 500, 1000, 2500),
            n_runs=20,
            sim_time_s=5000.0,
        )

    @classmethod
    def smoke(cls) -> "SweepScale":
        """Smallest does-it-run-at-all scale (unit-test sized, 60 s).

        Too small for the figure benchmarks' shape assertions — use
        :meth:`ci` for those.
        """
        return cls(senders=(5, 20), bursts=(10, 500), n_runs=1, sim_time_s=60.0)

    @classmethod
    def ci(cls) -> "SweepScale":
        """The CI *benchmark* scale: a strict subset of the bench matrix.

        Keeps the lightest and heaviest sender counts and the bursts the
        figure assertions reference (10 and 100) at the full 120 s bench
        duration, so every per-cell result — and thus every asserted
        shape — matches the bench-scale run cell-for-cell.  (Contrast
        :meth:`smoke`, which only checks that a sweep runs at all.)
        """
        return cls(senders=(5, 35), bursts=(10, 100), n_runs=1, sim_time_s=120.0)

    def replace(self, **changes: typing.Any) -> "SweepScale":
        """Copy with ``changes`` applied."""
        return dataclasses.replace(self, **changes)


def _base_config(
    case: str,
    rate_bps: float | None,
    overrides: typing.Mapping[str, typing.Any] | None = None,
) -> ScenarioConfig:
    if case == "SH":
        config = single_hop_config()
    elif case == "MH":
        config = multi_hop_config()
    else:
        raise ValueError(f"case must be 'SH' or 'MH', got {case!r}")
    if rate_bps is not None:
        config = config.replace(rate_bps=rate_bps)
    if overrides:
        config = config.replace(**dict(overrides))
    return config


@dataclasses.dataclass(frozen=True)
class PlannedRun:
    """One run of the experiment matrix: its cell and concrete config."""

    label: str
    n_senders: int
    config: ScenarioConfig

    def describe(self, case: str) -> str:
        """Progress label, e.g. ``"SH: DualRadio-500 senders=20 seed=3"``."""
        return (
            f"{case}: {self.label} senders={self.n_senders} "
            f"seed={self.config.seed}"
        )


def sweep_plan(
    case: str,
    scale: SweepScale | None = None,
    rate_bps: float | None = None,
    include_wifi: bool = True,
    include_sensor: bool = True,
    overrides: typing.Mapping[str, typing.Any] | None = None,
) -> list[PlannedRun]:
    """Lay out every run of the matrix as an independent config.

    Order is deterministic and matches the figures' legend order: dual
    models per burst size, then the sensor baseline, then 802.11 — each
    swept over sender counts, each cell replicated ``scale.n_runs`` times
    with consecutive seeds.

    ``overrides`` is applied to the case's base config before the matrix
    is laid out; it is how the composition axes (``topology``,
    ``propagation``, ``high_radios``, ``traffic``/``traffic_mix``) enter
    the planner — the resulting cells hash, cache and shard like any
    paper cell.
    """
    scale = scale or SweepScale()
    base = _base_config(case, rate_bps, overrides)
    plan: list[PlannedRun] = []

    def add_cell(label: str, n_senders: int, config: ScenarioConfig) -> None:
        for replica in replica_configs(config, scale.n_runs):
            plan.append(PlannedRun(label, n_senders, replica))

    for burst in scale.bursts:
        for n_senders in scale.senders:
            add_cell(
                dual_label(burst),
                n_senders,
                base.replace(
                    model=MODEL_DUAL,
                    burst_packets=burst,
                    n_senders=n_senders,
                    sim_time_s=scale.sim_time_s,
                    seed=scale.seed,
                ),
            )
    if include_sensor:
        for n_senders in scale.senders:
            add_cell(
                LABEL_SENSOR,
                n_senders,
                base.replace(
                    model=MODEL_SENSOR,
                    n_senders=n_senders,
                    sim_time_s=scale.sim_time_s,
                    seed=scale.seed,
                ),
            )
    if include_wifi:
        for n_senders in scale.senders:
            add_cell(
                LABEL_WIFI,
                n_senders,
                base.replace(
                    model=MODEL_WIFI,
                    n_senders=n_senders,
                    sim_time_s=scale.sim_time_s,
                    seed=scale.seed,
                ),
            )
    return plan


def run_sweep(
    case: str,
    scale: SweepScale | None = None,
    rate_bps: float | None = None,
    include_wifi: bool = True,
    include_sensor: bool = True,
    runner: SweepRunner | None = None,
    overrides: typing.Mapping[str, typing.Any] | None = None,
) -> SweepData:
    """Run the full experiment matrix for one case.

    Parameters
    ----------
    case:
        "SH" (Figs. 5–7) or "MH" (Figs. 8–10).
    scale:
        Sweep size (defaults to the benchmark scale).
    rate_bps:
        Per-sender rate override (the paper uses 2 kb/s for the
        goodput/energy figures and 0.2 kb/s for the energy–delay figures).
    include_wifi / include_sensor:
        Skip the baselines when a figure does not need them.
    overrides:
        Extra :class:`ScenarioConfig` field overrides applied to the base
        config (scenario-composition axes, field sizes, ...).
    runner:
        Execution engine.  Defaults to a fresh serial, cache-less
        :class:`~repro.runner.SweepRunner`, which reproduces the historic
        behavior exactly.  Its ``progress`` sink receives one
        :class:`~repro.runner.ProgressEvent` per finished cell.
    """
    scale = scale or SweepScale()
    plan = sweep_plan(
        case,
        scale,
        rate_bps=rate_bps,
        include_wifi=include_wifi,
        include_sensor=include_sensor,
        overrides=overrides,
    )
    base = _base_config(case, rate_bps, overrides)
    runner = runner or SweepRunner()
    results = runner.map(
        run_scenario,
        [planned.config for planned in plan],
        describe=lambda index, _config: plan[index].describe(case),
    )
    cells: dict[str, dict[int, SweepCell]] = {}
    for planned, result in zip(plan, results):
        per_count = cells.setdefault(planned.label, {})
        per_count.setdefault(planned.n_senders, SweepCell([])).results.append(
            result
        )
    return SweepData(
        case=case,
        rate_bps=base.rate_bps if rate_bps is None else rate_bps,
        sim_time_s=scale.sim_time_s,
        n_runs=scale.n_runs,
        cells=cells,
    )


def sweep_digest(sweep: SweepData) -> str:
    """A stable sha256 over the sweep's full serialized result set.

    Byte-identity is the contract the distributed machinery rests on:
    serial, process-pool and merged-shard executions of the same plan
    must serialize to the same bytes, so their digests must collide.  The
    golden-trace determinism tests pin one such digest in-repo — any
    semantic drift in the simulator, the result schema, or the float
    round-tripping shows up as a loud digest mismatch.
    """
    import hashlib
    import json

    payload = {
        "case": sweep.case,
        "rate_bps": sweep.rate_bps,
        "sim_time_s": sweep.sim_time_s,
        "n_runs": sweep.n_runs,
        "cells": {
            label: {
                str(n): cell.to_dicts() for n, cell in per_count.items()
            }
            for label, per_count in sweep.cells.items()
        },
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def goodput_rows(sweep: SweepData) -> dict[str, dict[int, float]]:
    """Fig. 5 / Fig. 8 view: goodput per label per sender count."""
    return {
        label: {
            n: cell.summary().goodput.mean for n, cell in per_count.items()
        }
        for label, per_count in sweep.cells.items()
    }


def energy_rows(sweep: SweepData) -> dict[str, dict[int, float]]:
    """Fig. 6 / Fig. 9 view: normalized energy (J/Kbit).

    The sensor runs appear twice — under the ideal and header-overhearing
    accountings — exactly as the paper plots them; the 802.11 model is
    omitted (the paper excludes it from energy comparisons).
    """
    rows: dict[str, dict[int, float]] = {}
    for label, per_count in sweep.cells.items():
        if label == LABEL_WIFI:
            continue
        if label == LABEL_SENSOR:
            for variant, key in (
                ("Sensor-ideal", ENERGY_SENSOR_IDEAL),
                ("Sensor-header", ENERGY_SENSOR_HEADER),
            ):
                rows[variant] = {}
                for n, cell in per_count.items():
                    estimate = cell.summary(key).normalized_energy_j_per_kbit
                    rows[variant][n] = (
                        estimate.mean if estimate is not None else float("inf")
                    )
            continue
        rows[label] = {}
        for n, cell in per_count.items():
            estimate = cell.summary().normalized_energy_j_per_kbit
            rows[label][n] = (
                estimate.mean if estimate is not None else float("inf")
            )
    return rows


def energy_delay_points(
    sweep: SweepData,
) -> dict[int, list[tuple[int, float, float]]]:
    """Fig. 7 / Fig. 10 view: (burst, delay s, energy J/Kbit) per sender count.

    Each sender count is one line; each burst size is one point along it.
    """
    points: dict[int, list[tuple[int, float, float]]] = {}
    for label, per_count in sweep.cells.items():
        if not label.startswith("DualRadio-"):
            continue
        burst = int(label.split("-", 1)[1])
        for n, cell in per_count.items():
            summary = cell.summary()
            energy = (
                summary.normalized_energy_j_per_kbit.mean
                if summary.normalized_energy_j_per_kbit is not None
                else float("inf")
            )
            points.setdefault(n, []).append(
                (burst, summary.mean_delay_s.mean, energy)
            )
    for n in points:
        points[n].sort()
    return points
