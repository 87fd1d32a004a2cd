"""The benchmark's two workloads: whole ``run_scenario`` cells.

Every workload is built only from config fields the simulator keeps for
good (no ``scheduler``, no ``mac_engine``) through the public API, so
deleting an alternate engine cannot break or rename a workload.  A
builder takes a scenario seed: it picks the senders, the random
deployment and every tie-break, so the same seed always gives the same
cell and the same ``RunResult``.

``tiny=True`` shrinks each cell to a fraction of a second for the
harness self-check; the shape (model, topology kind, fault path) stays.
"""

from __future__ import annotations

import dataclasses
import typing

from repro import ScenarioConfig, multi_hop_config
from repro.faults import FaultPlan
from repro.topology.registry import TopologySpec


@dataclasses.dataclass(frozen=True)
class Workload:
    """One named cell: how to build its config, and what it must report."""

    name: str
    build: typing.Callable[[int, bool], ScenarioConfig]
    #: Back-to-back ``build_network`` calls in one set-up sample, about
    #: 0.2 s of builds at full size.  Fixed rather than timed, so every
    #: run leaves the same garbage behind and peak RSS stays comparable.
    setup_repeats: int
    #: Scripted deaths (and so topology epochs) the run must report.
    expected_deaths: typing.Callable[[bool], int] = lambda tiny: 0


def _paper_mh(seed: int, tiny: bool) -> ScenarioConfig:
    # The paper's MH figure cell at its defaults: 6x6 grid, Micaz +
    # Cabletron, 10 senders at 2 kb/s, burst 500, 5000 s.
    if tiny:
        return multi_hop_config(seed=seed, sim_time_s=100.0, burst_packets=100)
    return multi_hop_config(seed=seed)


def _uniform(n: int, field_m: float) -> TopologySpec:
    return TopologySpec.of("uniform-random", n=n, width_m=field_m, height_m=field_m)


def _churn_deaths(tiny: bool) -> int:
    return 10 if tiny else 100


def _churn_1k(seed: int, tiny: bool) -> ScenarioConfig:
    # 1k nodes on a 700 m field (mean sensor degree ~10), one scripted
    # death every 0.27 s of simulated time; victims are distinct non-sink
    # ids (i * 9 mod 999 has period 111 > 100).
    n, field_m, sim_time_s = (100, 220.0, 5.0) if tiny else (1000, 700.0, 30.0)
    n_deaths = _churn_deaths(tiny)
    step = sim_time_s * 0.9 / n_deaths
    plan = FaultPlan(
        crashes=tuple(
            (step * (i + 1), 1 + (i * 9) % (n - 1)) for i in range(n_deaths)
        )
    )
    return ScenarioConfig(
        model="dual",
        topology=_uniform(n, field_m),
        sink=0,
        n_senders=10,
        rate_bps=2000.0,
        burst_packets=100,
        sim_time_s=sim_time_s,
        seed=seed,
        faults=plan,
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("paper-mh", _paper_mh, setup_repeats=10),
        Workload("churn-1k", _churn_1k, setup_repeats=3, expected_deaths=_churn_deaths),
    )
}
