"""Run one benchmark workload and print its result as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-mh --seed 1 --seconds 60 --trace 0

``--trace 0`` reports the end-to-end metrics of untraced cells;
``--trace 1`` runs one panel cell untraced and once under the profiler
and reports the per-layer split instead.  ``--seconds`` defaults to
``run_seconds`` in ``BENCHMARK.json``.  The simulator is imported from
this checkout's ``src/``; with no ``src/repro`` beside this directory
the run fails without a result.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds",
        type=float,
        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"],
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="shrink every cell (harness self-check)"
    )
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no simulator sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]

    from perfbench.harness import benchmark
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result = benchmark(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.tiny
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
