"""CI check: every full-size perfbench cell reproduces its pinned digest.

``perfbench/selfcheck.py`` runs only the tiny cells, and a change to
same-instant event order can keep every tiny pin while it moves full
ones.  This script runs each pinned ``full`` cell of
``perfbench/expected.json`` (8 per workload) through
``perfbench.pins.mismatch`` and exits 1 if any cell departs from its
pin.  About 45 s on a 2-core host.  Run from the repository root::

    python .github/scripts/perfbench_pins.py
"""

from __future__ import annotations

import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[2]


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.pins import mismatch, pool
    from perfbench.workloads import WORKLOADS
    from repro import run_scenario

    failures: list[str] = []
    for name, workload in WORKLOADS.items():
        for pin in pool(name, tiny=False):
            start = time.perf_counter()
            result = run_scenario(workload.build(pin["seed"], False))
            problems = mismatch(pin, result)
            status = "MISMATCH" if problems else "ok"
            print(
                f"{name} seed {pin['seed']}: {status} "
                f"({time.perf_counter() - start:.1f} s)",
                flush=True,
            )
            failures += [f"{name}: {problem}" for problem in problems]
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
