"""Fast self-check of the benchmark harness (about a minute).

Runs every defined workload at a tiny size through ``run.py``, untraced and
traced, and checks that each run is correct and prints, as its last
line, exactly the metrics ``BENCHMARK.json`` declares for that mode,
each with its declared unit and a finite value.  One extra run on seed 2
must report the same set of metrics.  Finally, a copy of the benchmark
without the simulator's sources must fail without printing a result.

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import math
import pathlib
import shutil
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def run(root: pathlib.Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--tiny",
        ],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=300,
    )


def check_run(spec: dict, workload: str, seed: int, trace: int) -> set[str]:
    proc = run(ROOT, workload, seed, trace)
    label = f"{workload} seed={seed} trace={trace}"
    if proc.returncode != 0:
        raise AssertionError(f"{label}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True and result["failed"] == 0, (label, proc.stderr)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    assert set(metrics) == set(declared), (
        f"{label}: missing {sorted(set(declared) - set(metrics))}, "
        f"undeclared {sorted(set(metrics) - set(declared))}"
    )
    for name, metric in metrics.items():
        assert metric["unit"] == declared[name], (label, name, metric["unit"])
        assert isinstance(metric["value"], (int, float)), (label, name)
        assert math.isfinite(metric["value"]), (label, name)
    return set(metrics)


def check_bare_copy() -> None:
    """Without ``src/`` beside it the benchmark must fail with no result."""
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        bare = pathlib.Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "churn-1k", 1, 0)
        assert proc.returncode != 0, "bare copy exited 0"
        assert '"metrics"' not in proc.stdout, "bare copy printed a result"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    undefined = {w["name"] for w in spec["workloads"]} - set(WORKLOADS)
    assert not undefined, f"BENCHMARK.json names undefined workloads {sorted(undefined)}"
    for workload in WORKLOADS:
        for trace in (0, 1):
            first = check_run(spec, workload, 1, trace)
            again = check_run(spec, workload, 2, trace)
            assert first == again, f"{workload} trace={trace}: seed 2 metric set differs"
        print(f"ok  {workload}", flush=True)
    check_bare_copy()
    print("ok  bare copy fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
