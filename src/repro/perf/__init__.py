"""Performance measurement: phase timers, the bench suite and its ceilings.

* :mod:`repro.perf.phases` — lightweight named wall-clock accumulators the
  scenario harness reports into (routing build vs sim loop), consumed by
  the fig benchmarks' JSON artifact and by ``repro bench``.
* :mod:`repro.perf.suite` — the declared benchmark cases (``smoke`` ⊂
  ``full``) and the ceilings that gate them.
* :mod:`repro.perf.bench` — runs a suite, checks the ceilings of the
  cases that ran and records the run as ``BENCH_<rev>.json``.

Only the phase accumulator is re-exported here: the scenario harness
imports it, so this package ``__init__`` must stay free of imports that
reach back into the model layer (``suite``/``bench`` import scenarios —
import them by module path).
"""

from repro.perf.phases import collect_phases, phase, phase_snapshot, record

__all__ = ["collect_phases", "phase", "phase_snapshot", "record"]
