"""Shared infrastructure for the per-figure benchmark suite.

Each ``test_fig*.py`` regenerates one artifact of the paper and prints the
same rows/series the paper reports (deliverable of the reproduction).  The
simulation sweeps are cached per session so figure pairs sharing a sweep
(5/6, 8/9) only pay for it once; timings are taken with
``benchmark.pedantic(rounds=1)`` because a single sweep is already minutes
of work at full fidelity.

Scale: benchmarks run a laptop-scale slice of the paper's matrix —
senders {5, 20, 35}, bursts {10, 100, 500}, one seed, 120 s — chosen so
every mechanism (contention collapse, wake-up amortization, buffering
delay) is active.  ``repro figN --paper`` reproduces the full 5000 s x 20
run matrix.  Setting ``REPRO_BENCH_SCALE=ci`` drops to the CI scale — a
strict subset of the bench matrix (senders {5, 35}, bursts {10, 100},
still 120 s) chosen so every asserted shape survives.

Execution goes through the sweep runner configured from the environment:
``REPRO_JOBS`` fans cells over worker processes (default serial), and
``REPRO_CACHE_DIR``, when set, persists results on disk across sessions
— so local benchmark runs get the parallel speedup by exporting one
variable.  Within a session,
sweeps are additionally memoized so figure pairs sharing one (5/6, 8/9)
only pay for it once.
"""

from __future__ import annotations

import os

import pytest

from repro.models.sweeps import SweepData, SweepScale, run_sweep
from repro.perf import collect_phases
from repro.runner import runner_from_env


def _bench_scales() -> tuple[SweepScale, SweepScale]:
    if os.environ.get("REPRO_BENCH_SCALE", "").strip().lower() in ("ci", "smoke"):
        ci = SweepScale.ci()
        # The 0.2 kb/s figures need the buffer to cycle within the run:
        # burst 100 fills in 128 s, so 600 s gives several cycles.
        return ci, ci.replace(sim_time_s=600.0)
    return (
        SweepScale(
            senders=(5, 20, 35), bursts=(10, 100, 500), n_runs=1,
            sim_time_s=120.0,
        ),
        SweepScale(
            senders=(5, 20, 35), bursts=(10, 100, 500), n_runs=1,
            sim_time_s=1500.0,
        ),
    )


#: Benchmark-scale sweep: large bursts (1000+) are excluded because they
#: need thousands of simulated seconds just to fill a buffer at 2 kb/s.
#: Scale for the energy-delay figures (0.2 kb/s needs longer runs for the
#: buffers to cycle; dual-radio-only, so still cheap).
BENCH_SCALE, DELAY_SCALE = _bench_scales()

_sweep_cache: dict[tuple, SweepData] = {}


def cached_sweep(case: str, scale: SweepScale, rate_bps: float,
                 **kwargs) -> SweepData:
    """Run (or fetch) the sweep for ``case`` at ``scale``."""
    key = (case, scale.senders, scale.bursts, scale.n_runs,
           scale.sim_time_s, rate_bps, tuple(sorted(kwargs.items())))
    if key not in _sweep_cache:
        _sweep_cache[key] = run_sweep(
            case, scale, rate_bps=rate_bps, runner=runner_from_env(), **kwargs
        )
    return _sweep_cache[key]


@pytest.fixture(autouse=True)
def record_phase_timings(request):
    """Attach per-phase scenario timings to the benchmark JSON artifact.

    Every cell run in-process during the test accumulates its
    ``routing_build`` / ``network_build`` / ``sim_loop`` wall-clock phases
    (see :mod:`repro.perf.phases`); whatever accumulated lands in the
    test's ``extra_info`` so the artifact records where sweep time went,
    seeding the trajectory ``repro bench`` gates.  Cells fanned out to
    worker processes (``REPRO_JOBS`` > 1) accumulate in the
    workers and are not transported back; cells served from the result
    cache never run at all — both legitimately record nothing.
    """
    benchmark = (
        request.getfixturevalue("benchmark")
        if "benchmark" in request.fixturenames
        else None
    )
    with collect_phases() as timings:
        yield
    if timings and benchmark is not None:
        benchmark.extra_info["phase_timings"] = {
            name: round(seconds, 6) for name, seconds in timings.items()
        }


@pytest.fixture
def print_artifact(capsys):
    """Print a rendered artifact so it lands in the benchmark output."""

    def _print(text: str) -> None:
        with capsys.disabled():
            print()
            print(text)
            print()

    return _print
