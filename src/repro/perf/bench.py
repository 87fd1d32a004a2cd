"""Run the bench suite, persist ``BENCH_<rev>.json``, gate regressions.

The perf trajectory lives in the repository as ``BENCH_<rev>.json`` files:
one per recorded revision, each holding the suite's wall times (best of
``repeats``) and ops counters.  ``repro bench`` runs a suite, writes the
current revision's file, and compares against a baseline — by default the
most recently modified ``BENCH_*.json`` of a *different* revision in the
output directory — failing when any shared case slowed down by more than
the threshold, or when a case's metric exceeds one of its ceilings
(:data:`repro.perf.suite.CEILINGS`).

Wall times only compare meaningfully on similar hardware; the committed
baseline is regenerated whenever the trajectory moves (commit the new
``BENCH_<rev>.json`` alongside the change that earned it).  The ceilings
carry the acceptance criteria across machines.
"""

from __future__ import annotations

import dataclasses
import datetime
import gc
import json
import pathlib
import platform
import subprocess
import sys
import time
import typing

from repro.perf.suite import BenchCase, bench_cases, ceilings

#: Format version of the BENCH json files.
BENCH_SCHEMA = 1

#: File-name pattern of persisted reports.
BENCH_GLOB = "BENCH_*.json"


@dataclasses.dataclass
class CaseResult:
    """One case's measurement: best wall time over ``repeats`` runs."""

    wall_s: float
    repeats: int
    ops: dict[str, float]


def host_key() -> str:
    """A coarse hardware/interpreter identity for wall-time comparability.

    Wall times only gate against a baseline recorded on the same kind of
    host; this key is deliberately coarse (OS, architecture, Python
    major.minor) so routine kernel/image bumps on CI runners don't break
    the chain, while a laptop-recorded baseline never wall-gates a CI
    runner.
    """
    return (
        f"{platform.system()}-{platform.machine()}"
        f"-py{sys.version_info.major}.{sys.version_info.minor}"
    )


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
    host: str = ""

    def to_json(self) -> str:
        payload = {
            "schema": BENCH_SCHEMA,
            "rev": self.rev,
            "suite": self.suite,
            "created": self.created,
            "python": self.python,
            "platform": self.platform,
            "host": self.host,
            "results": {
                name: dataclasses.asdict(result)
                for name, result in self.results.items()
            },
            "checks": self.checks,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


@dataclasses.dataclass
class Regression:
    """A case that slowed past the threshold vs the baseline."""

    case: str
    current_s: float
    baseline_s: float

    @property
    def ratio(self) -> float:
        return self.current_s / self.baseline_s if self.baseline_s else float("inf")

    def describe(self) -> str:
        return (
            f"{self.case}: {self.current_s:.4f}s vs baseline "
            f"{self.baseline_s:.4f}s ({(self.ratio - 1.0) * 100.0:+.1f}%)"
        )


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
        ops = dict(case.run(state))
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
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
        host=host_key(),
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


def load_report(path: str | pathlib.Path) -> BenchReport:
    """Read a persisted report (ValueError on schema or shape mismatch)."""
    payload = json.loads(pathlib.Path(path).read_text())
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: BENCH report is not a JSON object")
    schema = payload.get("schema")
    if schema != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: BENCH schema {schema!r} (this build reads {BENCH_SCHEMA})"
        )
    raw_results = payload.get("results", {})
    if not isinstance(raw_results, dict):
        raise ValueError(f"{path}: BENCH results is not a JSON object")
    results = {}
    for name, entry in raw_results.items():
        try:
            results[name] = CaseResult(
                wall_s=float(entry["wall_s"]),
                repeats=int(entry.get("repeats", 1)),
                ops={k: float(v) for k, v in entry.get("ops", {}).items()},
            )
        except (KeyError, TypeError, ValueError):
            # A hand-edited or older-generation entry missing its wall
            # time (or carrying a non-numeric one) drops out of the
            # comparison instead of aborting it: the remaining cases and
            # the ceilings still gate the run.
            continue
    return BenchReport(
        rev=str(payload.get("rev", "unknown")),
        suite=str(payload.get("suite", "unknown")),
        created=str(payload.get("created", "")),
        python=str(payload.get("python", "")),
        platform=str(payload.get("platform", "")),
        host=str(payload.get("host", "")),
        results=results,
        # Plain name -> number pairs: no gate reads a baseline's checks, so
        # older reports' ratios and rates load like any other value.
        checks={k: float(v) for k, v in payload.get("checks", {}).items()},
    )


def _created_stamp(path: pathlib.Path) -> float:
    """The report's creation time as a POSIX timestamp (-1 if unreadable).

    Parsed as a datetime rather than compared as text: older reports may
    carry local-zone offsets, and lexicographic order of offset-bearing
    stamps is not chronological.
    """
    try:
        payload = json.loads(path.read_text())
        raw = str(payload.get("created", ""))
        stamp = datetime.datetime.fromisoformat(raw)
    except (OSError, ValueError, AttributeError, TypeError):
        # Unreadable, non-object, or unparsable-stamp files sort last
        # instead of crashing baseline discovery.
        return -1.0
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=datetime.timezone.utc)
    return stamp.timestamp()


def _dirty_bench_names(directory: str | pathlib.Path) -> set[str] | None:
    """Basenames of BENCH files git considers dirty in ``directory``.

    Dirty means untracked or modified relative to HEAD — a bench run
    someone forgot to commit (or a hand-edited baseline) that must not
    silently become the regression baseline.  Returns ``None`` when the
    directory is not inside a git work tree (or git is unavailable), in
    which case every candidate is eligible — a plain output directory
    has no notion of committed.
    """
    try:
        status = subprocess.run(
            [
                "git",
                "status",
                "--porcelain",
                "--untracked-files=all",
                "--",
                BENCH_GLOB,
            ],
            cwd=str(directory),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if status.returncode != 0:
        return None
    dirty: set[str] = set()
    for line in status.stdout.splitlines():
        # Porcelain v1: "XY path" (paths relative to the repo root, so
        # compare basenames — BENCH names are revision-unique).  Renames
        # read "XY old -> new".
        path = line[3:].split(" -> ")[-1].strip().strip('"')
        if path:
            dirty.add(pathlib.PurePosixPath(path).name)
    return dirty


def find_baseline(
    directory: str | pathlib.Path, exclude_rev: str | None = None
) -> pathlib.Path | None:
    """The newest ``BENCH_*.json`` in ``directory`` not from ``exclude_rev``.

    Ordered by each report's recorded ``created`` stamp (parsed,
    zone-aware), with file mtime as the tie-break: in a fresh git
    checkout every committed baseline shares one checkout-time mtime,
    which says nothing about recording order.

    Inside a git work tree, uncommitted or locally modified BENCH files
    are not baseline material (a leftover local run would otherwise mask
    real regressions — or invent them); only committed, unmodified
    reports are considered.  Outside git every report is eligible.
    """
    candidates = [
        path
        for path in pathlib.Path(directory).glob(BENCH_GLOB)
        if exclude_rev is None or path.name != f"BENCH_{exclude_rev}.json"
    ]
    dirty = _dirty_bench_names(directory)
    if dirty is not None:
        candidates = [path for path in candidates if path.name not in dirty]
    if not candidates:
        return None
    return max(
        candidates,
        key=lambda path: (_created_stamp(path), path.stat().st_mtime),
    )


def walls_comparable(current: BenchReport, baseline: BenchReport) -> bool:
    """Whether the two reports' wall times can be meaningfully compared.

    True when both carry the same :func:`host_key` (or the baseline
    predates host tagging, in which case callers should decide — see
    ``repro bench --compare-across-hosts``).
    """
    return bool(current.host and baseline.host and current.host == baseline.host)


def compare_reports(
    current: BenchReport,
    baseline: BenchReport,
    threshold: float = 0.25,
    min_wall_s: float = 0.1,
) -> list[Regression]:
    """Cases shared with ``baseline`` that slowed by more than ``threshold``.

    ``threshold`` is fractional: 0.25 tolerates a 25% slowdown.  Cases
    present on only one side are ignored (the suite grows over time), and
    so are cases whose baseline wall time is below ``min_wall_s``: on a
    shared CI runner the absolute delta of a sub-100 ms case is scheduler
    noise, not signal — such cases are gated only by their ceilings, if any.
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    regressions = []
    for name, result in current.results.items():
        base = baseline.results.get(name)
        if base is None or base.wall_s < min_wall_s or base.wall_s <= 0:
            continue
        if result.wall_s > base.wall_s * (1.0 + threshold):
            regressions.append(
                Regression(
                    case=name,
                    current_s=result.wall_s,
                    baseline_s=base.wall_s,
                )
            )
    return regressions
