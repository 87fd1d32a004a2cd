"""Run the bench suite, check its ceilings, persist ``BENCH_<rev>.json``.

``repro bench`` runs a suite's cases (best-of-``repeats`` wall time plus
ops counters per case), checks every ceiling of the cases that ran
(:data:`repro.perf.suite.CEILINGS`) and writes the run to
``BENCH_<rev>.json`` as a record.  The ceilings are the only gate: they
hold on any CI-class host, whereas a best-of-N wall measured here says
little about one measured on another machine or under another load.
Wall-time changes are judged by parent/change runs of the end-to-end
benchmark alternated on one host instead.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import pathlib
import platform
import subprocess
import time
import typing

from repro.perf.suite import BenchCase, bench_cases, ceilings

#: Format version of the BENCH json files.
BENCH_SCHEMA = 1


@dataclasses.dataclass
class CaseResult:
    """One case's measurement: best wall time over ``repeats`` runs, and
    the ops counters of that best run."""

    wall_s: float
    repeats: int
    ops: dict[str, float]


@dataclasses.dataclass
class BenchReport:
    """One suite run on one revision."""

    rev: str
    suite: str
    created: str
    python: str
    platform: str
    results: dict[str, CaseResult]
    checks: dict[str, float] = dataclasses.field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "schema": BENCH_SCHEMA,
            "rev": self.rev,
            "suite": self.suite,
            "created": self.created,
            "python": self.python,
            "platform": self.platform,
            "results": {
                name: dataclasses.asdict(result)
                for name, result in self.results.items()
            },
            "checks": self.checks,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def git_rev(directory: str | pathlib.Path = ".") -> str:
    """The short git revision of ``directory``, or ``"local"`` without git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(directory),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "local"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "local"


def run_case(
    case: BenchCase,
    repeats: int | None = None,
    profile_dir: str | pathlib.Path | None = None,
) -> CaseResult:
    """Measure one case: untimed setup, then best-of-``repeats`` runs.

    With ``profile_dir``, one *extra* round runs under :mod:`cProfile`
    after the timed ones and its stats land in
    ``<profile_dir>/<case>.pstats`` (load with :mod:`pstats` or snakeviz).
    The profiled round is never timed: profiling overhead would poison the
    recorded walls, so the artifact rides along without touching them.
    """
    rounds = repeats if repeats is not None else case.repeats
    if rounds < 1:
        raise ValueError(f"repeats must be at least 1, got {rounds}")
    state = case.setup()
    best = float("inf")
    ops: dict[str, float] = {}
    for _ in range(rounds):
        # Start each round from a settled heap: without this, garbage
        # surviving from *earlier cases* inflates this case's collector
        # pauses, coupling measurements that should be independent.
        gc.collect()
        start = time.perf_counter()
        round_ops = dict(case.run(state))
        elapsed = time.perf_counter() - start
        if elapsed < best:
            # The ops (phase timings included) of the round whose wall is
            # reported, so a phase never reads longer than the whole run.
            best = elapsed
            ops = round_ops
    if profile_dir is not None:
        import cProfile

        target = pathlib.Path(profile_dir)
        target.mkdir(parents=True, exist_ok=True)
        gc.collect()
        profiler = cProfile.Profile()
        profiler.enable()
        case.run(state)
        profiler.disable()
        profiler.dump_stats(str(target / f"{case.name}.pstats"))
    return CaseResult(wall_s=best, repeats=rounds, ops=ops)


def run_suite(
    suite: str = "smoke",
    repeats: int | None = None,
    rev: str | None = None,
    log: typing.Callable[[str], None] | None = None,
    profile_dir: str | pathlib.Path | None = None,
) -> BenchReport:
    """Run every case of ``suite`` and measure the ceilings of those cases.

    ``profile_dir`` (optional) additionally captures one cProfile round
    per case as ``<profile_dir>/<case>.pstats`` — see :func:`run_case`.
    """
    cases = bench_cases(suite)
    results: dict[str, CaseResult] = {}
    for case in cases:
        if log is not None:
            log(f"[bench] {case.name}: {case.summary} ...")
        result = run_case(case, repeats=repeats, profile_dir=profile_dir)
        results[case.name] = result
        if log is not None:
            log(
                f"[bench] {case.name}: {result.wall_s:.4f}s "
                f"(best of {result.repeats})"
            )
    # Each ceiling's measured value, so the persisted report shows the
    # headroom it had; a missing metric is left out and fails the gate.
    checks = {
        ceiling.name: value
        for ceiling in ceilings(results)
        if (value := ceiling.measure(results[ceiling.case])) is not None
    }
    return BenchReport(
        rev=rev or git_rev(),
        suite=suite,
        # Stamped in UTC so recorded order is comparable across machines.
        created=time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime()),
        python=platform.python_version(),
        platform=platform.platform(),
        results=results,
        checks=checks,
    )


def failed_gates(report: BenchReport) -> list[str]:
    """Ceilings of the cases that ran whose metric is over its limit or missing."""
    failures = []
    for ceiling in ceilings(report.results):
        value = ceiling.measure(report.results[ceiling.case])
        if value is None:
            failures.append(
                f"{ceiling.name}: {ceiling.case} reports no {ceiling.metric}"
            )
        elif value > ceiling.limit:
            failures.append(
                f"{ceiling.name}: {ceiling.case} {ceiling.metric} = "
                f"{value:g}, over the {ceiling.limit:g} ceiling"
            )
    return failures


def write_report(
    report: BenchReport, directory: str | pathlib.Path = "."
) -> pathlib.Path:
    """Persist ``report`` as ``<directory>/BENCH_<rev>.json``."""
    target = pathlib.Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    path = target / f"BENCH_{report.rev}.json"
    path.write_text(report.to_json() + "\n")
    return path
