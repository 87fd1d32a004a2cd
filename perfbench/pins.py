"""Pinned cells: the scenario seeds a run draws from, and what each must give.

``expected.json`` holds, for every workload and size (``full``,
``tiny``), a pool of :data:`POOL` scenario seeds, each with its cell's
``RunResult`` digest, model outputs and event count.  A run draws its
panel from the pool with ``--seed``, and every cell it runs must give its
pinned digest.  So a change that alters simulated behaviour fails the
run even when it alters it the same way every time.  A change that
alters behaviour on purpose re-pins, from the repository root::

    python3 perfbench/pins.py

Re-pinning keeps each pool's seeds, so the benchmark's inputs stay the
same across the change.  A workload with no entry in the table (a new
one, or one whose entry was deleted) gets its pool chosen anew.  A pool
holds the :data:`POOL` seeds among the first :data:`CANDIDATES` whose
event counts lie nearest their median.  One
scenario seed moves a cell's work by up to a quarter; drawing panels
from cells of like size keeps which cells a seed draws from moving a
run's wall much.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys
import typing

HERE = pathlib.Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
SIZES = ("full", "tiny")
POOL = 8
CANDIDATES = 16

Pin = typing.Dict[str, typing.Any]


def model_outputs(result: typing.Any) -> dict[str, float]:
    """The paper's figures of merit for one cell."""
    delivered = result.delivered_bits
    return {
        "energy_per_bit_uj": result.energy_j["total"] * 1e6 / delivered if delivered else 0.0,
        "delivery_ratio": delivered / result.generated_bits if result.generated_bits else 0.0,
        "mean_delay_s": result.mean_delay_s,
    }


def pool(workload: str, tiny: bool) -> list[Pin]:
    """The pinned cells of ``workload`` at one size."""
    return json.loads(EXPECTED.read_text())[workload][SIZES[tiny]]


def mismatch(pin: Pin, result: typing.Any) -> list[str]:
    """How ``result`` departs from its pin; empty when it matches."""
    from repro.runner.cache import results_digest

    digest = results_digest([result])
    if digest == pin["digest"]:
        return []
    got = model_outputs(result)
    moved = [f"{key} {pin[key]!r} -> {got[key]!r}" for key in got if got[key] != pin[key]]
    return [
        f"scenario seed {pin['seed']}: digest {digest[:12]} is not the pinned "
        f"{pin['digest'][:12]} ({', '.join(moved) or 'model outputs unchanged'})"
    ]


def _pin_cell(workload: typing.Any, seed: int, tiny: bool) -> Pin:
    from repro import run_scenario
    from repro.runner.cache import results_digest

    from perfbench.harness import capture_network

    captured: list[typing.Any] = []
    with capture_network(captured):
        result = run_scenario(workload.build(seed, tiny))
    return {
        "seed": seed,
        "digest": results_digest([result]),
        "events": captured[0].sim.events_processed,
        **model_outputs(result),
    }


def _select(workload: typing.Any, tiny: bool) -> list[Pin]:
    """Pin the first :data:`CANDIDATES` seeds; keep the most typical."""
    pins = [_pin_cell(workload, seed, tiny) for seed in range(1, CANDIDATES + 1)]
    middle = statistics.median(pin["events"] for pin in pins)
    typical = sorted(pins, key=lambda pin: (abs(pin["events"] - middle), pin["seed"]))
    return sorted(typical[:POOL], key=lambda pin: pin["seed"])


def main() -> int:
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent)]
    from perfbench.workloads import WORKLOADS

    old = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    table: dict[str, dict[str, list[Pin]]] = {}
    for name, workload in WORKLOADS.items():
        table[name] = {}
        for size in SIZES:
            tiny = size == "tiny"
            seeds = [pin["seed"] for pin in old.get(name, {}).get(size, [])]
            table[name][size] = (
                [_pin_cell(workload, seed, tiny) for seed in seeds]
                if seeds
                else _select(workload, tiny)
            )
            print(name, size, [pin["seed"] for pin in table[name][size]], flush=True)
    EXPECTED.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
