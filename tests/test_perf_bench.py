"""Tests for the perf subsystem: phases, bench harness, gate, CLI."""

import json

import pytest

from repro.cli.main import main
from repro.perf import bench as perf_bench
from repro.perf import collect_phases, phase, phase_snapshot, record
from repro.perf.bench import (
    BenchReport,
    CaseResult,
    compare_reports,
    failed_gates,
    find_baseline,
    load_report,
    run_case,
    write_report,
)
from repro.perf.bench import host_key, walls_comparable
from repro.perf.suite import (
    CEILINGS,
    FIG_CELL_EVENTS,
    SUITES,
    BenchCase,
    all_cases,
    bench_cases,
    ceilings,
)


class TestPhases:
    def test_disabled_by_default(self):
        record("anything", 1.0)
        assert phase_snapshot() == {}

    def test_collect_accumulates(self):
        with collect_phases() as timings:
            record("build", 1.5)
            record("build", 0.5)
            with phase("loop"):
                pass
        assert timings["build"] == 2.0
        assert timings["loop"] >= 0.0
        assert phase_snapshot() == {}  # collection ended

    def test_nested_collectors_stack(self):
        with collect_phases() as outer:
            record("a", 1.0)
            with collect_phases() as inner:
                record("a", 5.0)
            record("b", 2.0)
        assert inner == {"a": 5.0}
        assert outer == {"a": 1.0, "b": 2.0}


def _tiny_case(name="tiny", suites=SUITES, repeats=2):
    return BenchCase(
        name=name,
        summary="a test case",
        setup=lambda: {"n": 1000},
        run=lambda state: {"n": float(state["n"])},
        suites=tuple(suites),
        repeats=repeats,
    )


def _fake_case(name, ops):
    return BenchCase(
        name=name,
        summary="fake",
        setup=lambda: None,
        run=lambda _state: dict(ops),
        repeats=1,
    )


class TestHarness:
    def test_run_case_best_of_repeats(self):
        result = run_case(_tiny_case())
        assert result.repeats == 2
        assert result.wall_s >= 0.0
        assert result.ops == {"n": 1000.0}

    def test_repeats_override(self):
        assert run_case(_tiny_case(), repeats=5).repeats == 5
        with pytest.raises(ValueError, match="at least 1"):
            run_case(_tiny_case(), repeats=0)

    def test_profile_dir_writes_pstats(self, tmp_path):
        import pstats

        profile_dir = tmp_path / "prof"
        result = run_case(_tiny_case(), profile_dir=str(profile_dir))
        # The profiled round is extra and untimed: the recorded result
        # still reflects the plain timed repeats.
        assert result.repeats == 2
        stats = pstats.Stats(str(profile_dir / "tiny.pstats"))
        assert stats.total_calls > 0

    def test_suite_selection(self):
        smoke = {case.name for case in bench_cases("smoke")}
        full = {case.name for case in bench_cases("full")}
        assert smoke < full  # smoke is a strict subset
        assert "routing-build-lazy-1k" in smoke
        assert "routing-build-lazy-5k" in smoke
        assert "fig-cell-heavy" in full - smoke

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            bench_cases("nightly")

    def test_ceilings_need_their_case(self):
        assert ceilings({"case-a"}) == []
        gates = ceilings({"case-a", "routing-build-lazy-1k"})
        assert [gate.name for gate in gates] == ["routing-1k-trees"]


def _report(rev="abc123", walls=None, checks=None, host="test-host", ops=None):
    walls = walls or {"case-a": 1.0, "case-b": 2.0}
    ops = {"x": 1.0} if ops is None else ops
    return BenchReport(
        rev=rev,
        suite="smoke",
        created="2026-07-29T00:00:00",
        python="3.11",
        platform="test",
        host=host,
        results={
            name: CaseResult(wall_s=wall, repeats=1, ops=dict(ops))
            for name, wall in walls.items()
        },
        checks=dict(checks or {}),
    )


class TestReportsAndGate:
    def test_write_load_round_trip(self, tmp_path):
        report = _report()
        path = write_report(report, tmp_path)
        assert path.name == "BENCH_abc123.json"
        loaded = load_report(path)
        assert loaded.rev == report.rev
        assert loaded.results["case-a"].wall_s == 1.0
        assert loaded.results["case-b"].ops == {"x": 1.0}

    def test_schema_mismatch_rejected(self, tmp_path):
        bad = tmp_path / "BENCH_old.json"
        bad.write_text(json.dumps({"schema": 999, "results": {}}))
        with pytest.raises(ValueError, match="schema"):
            load_report(bad)

    def test_non_object_report_rejected(self, tmp_path):
        bad = tmp_path / "BENCH_mangled.json"
        bad.write_text(json.dumps(["not", "a", "report"]))
        with pytest.raises(ValueError, match="not a JSON object"):
            load_report(bad)

    def test_find_baseline_survives_mangled_candidates(self, tmp_path):
        (tmp_path / "BENCH_junk.json").write_text("[1, 2, 3]")
        (tmp_path / "BENCH_trunc.json").write_text('{"created": "20')
        good = write_report(_report(rev="good"), tmp_path)
        assert find_baseline(tmp_path) == good

    def test_find_baseline_excludes_current_rev(self, tmp_path):
        import os

        old = write_report(_report(rev="aaa"), tmp_path)
        newest = write_report(_report(rev="bbb"), tmp_path)
        os.utime(old, (1_000_000, 1_000_000))
        os.utime(newest, (2_000_000, 2_000_000))
        assert find_baseline(tmp_path, exclude_rev="bbb").name == "BENCH_aaa.json"
        assert find_baseline(tmp_path) == newest

    def test_find_baseline_empty(self, tmp_path):
        assert find_baseline(tmp_path) is None

    def test_compare_flags_only_past_threshold(self):
        baseline = _report(walls={"case-a": 1.0, "case-b": 1.0})
        current = _report(walls={"case-a": 1.2, "case-b": 1.3, "new": 9.0})
        regressions = compare_reports(current, baseline, threshold=0.25)
        assert [reg.case for reg in regressions] == ["case-b"]
        assert regressions[0].ratio == pytest.approx(1.3)
        assert "case-b" in regressions[0].describe()

    def test_compare_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            compare_reports(_report(), _report(), threshold=-0.1)

    def test_compare_skips_sub_min_wall_cases(self):
        baseline = _report(walls={"short": 0.02, "long": 1.0})
        current = _report(walls={"short": 0.08, "long": 1.0})  # 4x slower
        assert compare_reports(current, baseline, threshold=0.25) == []
        flagged = compare_reports(
            current, baseline, threshold=0.25, min_wall_s=0.0
        )
        assert [reg.case for reg in flagged] == ["short"]

    def test_walls_comparable_requires_same_host(self):
        assert walls_comparable(_report(), _report())
        assert not walls_comparable(_report(), _report(host="other"))
        # Untagged legacy baselines are never silently wall-compared.
        assert not walls_comparable(_report(), _report(host=""))
        assert host_key()  # current host always tags new reports

    def test_host_round_trips_through_json(self, tmp_path):
        path = write_report(_report(host="ci-linux"), tmp_path)
        assert load_report(path).host == "ci-linux"

    def test_created_ordering_is_zone_aware(self, tmp_path):
        import os

        # 10:00+02:00 is 08:00 UTC — *older* than 09:00 UTC despite
        # lexicographically outranking it.
        early = _report(rev="early")
        early.created = "2026-07-29T10:00:00+02:00"
        late = _report(rev="late")
        late.created = "2026-07-29T09:00:00+00:00"
        for report in (early, late):
            path = write_report(report, tmp_path)
            os.utime(path, (1_000_000, 1_000_000))
        assert find_baseline(tmp_path).name == "BENCH_late.json"

    def test_find_baseline_orders_by_created_stamp(self, tmp_path):
        # Fresh-checkout scenario: identical mtimes, only the recorded
        # 'created' stamps distinguish recording order.
        import os

        older = _report(rev="aaa")
        older.created = "2026-01-01T00:00:00"
        newer = _report(rev="bbb")
        newer.created = "2026-06-01T00:00:00"
        for report in (older, newer):
            path = write_report(report, tmp_path)
            os.utime(path, (1_000_000, 1_000_000))
        assert find_baseline(tmp_path).name == "BENCH_bbb.json"
        assert find_baseline(tmp_path, exclude_rev="bbb").name == "BENCH_aaa.json"

    def test_failed_gates(self):
        # An ops ceiling holds at its limit and fails one above it.
        def fig_cell(events):
            return _report(walls={"fig-cell": 0.1}, ops={"events": events})

        assert FIG_CELL_EVENTS == 20_943
        assert failed_gates(fig_cell(20_943)) == []
        assert failed_gates(fig_cell(20_944)) == [
            "fig-cell-events: fig-cell events = 20944, over the 20943 ceiling"
        ]


class TestBenchCli:
    def test_list_exits_clean(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "routing-build-lazy-1k" in out

    def test_run_write_and_regression_gate(self, tmp_path, monkeypatch, capsys):
        # A controllable one-case suite: 'slow' toggles a sleep so the
        # second run regresses past any threshold.
        state = {"slow": False}

        def run(_state):
            if state["slow"]:
                import time

                time.sleep(0.05)
            return {"ok": 1.0}

        case = BenchCase(
            name="toy",
            summary="toy case",
            setup=lambda: None,
            run=run,
            repeats=1,
        )
        import repro.perf.suite as suite_module

        monkeypatch.setattr(suite_module, "all_cases", lambda: (case,))
        monkeypatch.setattr(
            perf_bench, "git_rev", lambda directory=".": "rev-one"
        )
        assert main(["bench", "--output-dir", str(tmp_path)]) == 0
        assert (tmp_path / "BENCH_rev-one.json").exists()
        capsys.readouterr()

        state["slow"] = True
        monkeypatch.setattr(
            perf_bench, "git_rev", lambda directory=".": "rev-two"
        )
        code = main(
            [
                "bench",
                "--output-dir",
                str(tmp_path),
                "--threshold",
                "0.25",
                "--min-wall",
                "0",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "regression" in err
        # the report is still written for inspection
        assert (tmp_path / "BENCH_rev-two.json").exists()

    def test_ceiling_check_prints_value_and_limit(self, monkeypatch, capsys):
        import repro.perf.suite as suite_module

        case = _fake_case("fig-cell", {"events": 1000.0})
        monkeypatch.setattr(suite_module, "all_cases", lambda: (case,))
        assert main(["bench", "--baseline", "none", "--no-write"]) == 0
        lines = {
            line.split()[0]: line.split()[1:]
            for line in capsys.readouterr().out.splitlines()
        }
        assert lines["fig-cell-events"] == [
            "1000", "<=", "20943", "fig-cell", "events"
        ]
        assert lines["fig-cell-wall"][1:] == [
            "<=", "0.403", "fig-cell", "wall_s"
        ]

    def test_repeats_below_one_rejected(self):
        with pytest.raises(SystemExit, match="--repeats must be at least 1"):
            main(["bench", "--repeats", "0", "--no-write"])

    def test_negative_min_wall_rejected(self):
        with pytest.raises(SystemExit, match="--min-wall must be non-negative"):
            main(["bench", "--min-wall", "-1", "--no-write"])

    def test_profile_flag_dumps_pstats(self, tmp_path, monkeypatch, capsys):
        import repro.perf.suite as suite_module

        monkeypatch.setattr(suite_module, "all_cases", lambda: (_tiny_case(),))
        profile_dir = tmp_path / "prof"
        code = main(
            [
                "bench",
                "--output-dir",
                str(tmp_path),
                "--no-write",
                "--baseline",
                "none",
                "--profile",
                str(profile_dir),
            ]
        )
        assert code == 0
        assert (profile_dir / "tiny.pstats").exists()
        assert "profiles:" in capsys.readouterr().out

    def test_foreign_host_baseline_skips_wall_gate(
        self, tmp_path, monkeypatch, capsys
    ):
        # A baseline recorded elsewhere must not wall-gate this host even
        # when every case regressed vs its numbers.
        foreign = _report(rev="elsewhere", walls={"tiny": 1e-9}, host="alien")
        write_report(foreign, tmp_path)
        import repro.perf.suite as suite_module

        monkeypatch.setattr(
            suite_module, "all_cases", lambda: (_tiny_case(),)
        )
        monkeypatch.setattr(
            perf_bench, "git_rev", lambda directory=".": "here"
        )
        assert main(["bench", "--output-dir", str(tmp_path), "--no-write"]) == 0
        out = capsys.readouterr().out
        assert "Wall-time comparison skipped" in out

    def test_no_baseline_skips_comparison(self, tmp_path, monkeypatch, capsys):
        import repro.perf.suite as suite_module

        monkeypatch.setattr(
            suite_module, "all_cases", lambda: (_tiny_case(),)
        )
        monkeypatch.setattr(
            perf_bench, "git_rev", lambda directory=".": "solo"
        )
        assert main(["bench", "--output-dir", str(tmp_path), "--no-write"]) == 0
        assert "comparison skipped" in capsys.readouterr().out

    def test_bad_baseline_path_errors(self, tmp_path, monkeypatch):
        import repro.perf.suite as suite_module

        monkeypatch.setattr(
            suite_module, "all_cases", lambda: (_tiny_case(),)
        )
        with pytest.raises(SystemExit, match="bad baseline"):
            main(
                [
                    "bench",
                    "--output-dir",
                    str(tmp_path),
                    "--no-write",
                    "--baseline",
                    str(tmp_path / "missing.json"),
                ]
            )


class TestBaselineHygiene:
    """PR-5 regressions: dirty BENCH files and degraded baselines."""

    @staticmethod
    def _git(repo, *args):
        import subprocess

        return subprocess.run(
            ["git", *args],
            cwd=repo,
            capture_output=True,
            text=True,
            check=True,
            env={
                "GIT_AUTHOR_NAME": "t",
                "GIT_AUTHOR_EMAIL": "t@t",
                "GIT_COMMITTER_NAME": "t",
                "GIT_COMMITTER_EMAIL": "t@t",
                "HOME": str(repo),
                "PATH": __import__("os").environ.get("PATH", ""),
            },
        )

    def _git_repo(self, tmp_path):
        repo = tmp_path / "repo"
        repo.mkdir()
        self._git(repo, "init", "-q")
        return repo

    def test_untracked_bench_file_is_not_a_baseline(self, tmp_path):
        repo = self._git_repo(tmp_path)
        committed = write_report(_report(rev="committed"), repo)
        self._git(repo, "add", committed.name)
        self._git(repo, "commit", "-q", "-m", "baseline")
        # A leftover local run: newer stamp, never committed.
        dirty = write_report(
            _report(rev="dirtylocal"), repo
        )
        payload = json.loads(dirty.read_text())
        payload["created"] = "2099-01-01T00:00:00+00:00"
        dirty.write_text(json.dumps(payload))
        assert find_baseline(repo) == committed

    def test_modified_committed_bench_file_is_not_a_baseline(self, tmp_path):
        repo = self._git_repo(tmp_path)
        first = write_report(_report(rev="first"), repo)
        second = write_report(_report(rev="second"), repo)
        self._git(repo, "add", first.name, second.name)
        self._git(repo, "commit", "-q", "-m", "baselines")
        # Hand-edit one: it drops out; the clean one wins even if older.
        payload = json.loads(second.read_text())
        payload["created"] = "2099-01-01T00:00:00+00:00"
        second.write_text(json.dumps(payload))
        assert find_baseline(repo) == first

    def test_all_dirty_means_no_baseline(self, tmp_path):
        repo = self._git_repo(tmp_path)
        write_report(_report(rev="only"), repo)
        assert find_baseline(repo) is None

    def test_outside_git_every_report_is_eligible(self, tmp_path):
        # tmp_path is no work tree: the historical behaviour stands.
        newest = write_report(_report(rev="anyone"), tmp_path)
        assert find_baseline(tmp_path) == newest

    def test_baseline_missing_host_skips_walls_keeps_ceilings(
        self, tmp_path
    ):
        # An early-generation baseline without host tagging must load,
        # refuse wall comparison, and leave the ceilings to gate.
        path = write_report(_report(rev="old", host="x"), tmp_path)
        payload = json.loads(path.read_text())
        del payload["host"]
        path.write_text(json.dumps(payload))
        baseline = load_report(path)
        assert baseline.host == ""
        current = _report(rev="new")
        assert not walls_comparable(current, baseline)
        assert compare_reports(current, baseline) == []

    def test_baseline_missing_results_loads_and_compares_empty(
        self, tmp_path
    ):
        path = tmp_path / "BENCH_bare.json"
        path.write_text(json.dumps({"schema": 1, "rev": "bare"}))
        baseline = load_report(path)
        assert baseline.results == {}
        assert compare_reports(_report(), baseline) == []

    def test_result_entry_missing_wall_is_dropped_not_fatal(self, tmp_path):
        path = write_report(
            _report(rev="mixed", walls={"good": 1.0, "bad": 2.0}), tmp_path
        )
        payload = json.loads(path.read_text())
        del payload["results"]["bad"]["wall_s"]
        path.write_text(json.dumps(payload))
        baseline = load_report(path)
        assert set(baseline.results) == {"good"}
        regressions = compare_reports(
            _report(walls={"good": 10.0, "bad": 10.0}), baseline
        )
        assert [r.case for r in regressions] == ["good"]


#: Smoke cases carrying a deterministic work ceiling.
_SMOKE_OPS_CASES = [
    case
    for case in bench_cases("smoke")
    if any(ceiling.metric != "wall_s" for ceiling in ceilings({case.name}))
]


class TestCeilings:
    def test_wall_ceiling_over_limit_fails(self):
        report = _report(walls={"scenario-compose-10k": 9.0})
        assert failed_gates(report) == [
            "scenario-10k-build-budget: scenario-compose-10k wall_s = 9, "
            "over the 5 ceiling"
        ]

    def test_wall_ceiling_under_limit_passes(self):
        report = _report(walls={"scenario-compose-10k": 1.2})
        assert failed_gates(report) == []

    def test_ceiling_skipped_when_case_absent(self):
        assert failed_gates(_report(walls={"case-a": 100.0})) == []

    def test_missing_metric_fails(self):
        # A case that ran without reporting its metric must not pass as 0.
        report = _report(walls={"fig-cell": 0.1}, ops={})
        assert failed_gates(report) == [
            "fig-cell-events: fig-cell reports no events"
        ]

    def test_run_suite_records_measured_values_in_checks(self, monkeypatch):
        cases = [
            _fake_case("scenario-compose-10k", {"nodes": 1.0}),
            _fake_case("fig-cell", {"nodes": 1.0}),
            _fake_case("sim-loop-10k", {"events": 5.0}),
        ]
        monkeypatch.setattr(perf_bench, "bench_cases", lambda _suite: cases)
        report = perf_bench.run_suite("full")
        assert report.checks["scenario-10k-build-budget"] == pytest.approx(
            report.results["scenario-compose-10k"].wall_s
        )
        assert report.checks["sim-loop-10k-events"] == 5.0
        # A missing metric records nothing: the gate reports it instead.
        assert "fig-cell-events" not in report.checks
        assert failed_gates(report) == [
            "fig-cell-events: fig-cell reports no events"
        ]

    def test_every_ceiling_names_a_suite_case(self):
        # A typo in a case name would silently disable its gate.
        suite_cases = {case.name for case in bench_cases("full")}
        names = [ceiling.name for ceiling in CEILINGS]
        assert len(names) == len(set(names))
        for ceiling in CEILINGS:
            assert ceiling.case in suite_cases, ceiling
        assert suite_cases == {case.name for case in all_cases()}

    @pytest.mark.parametrize(
        "case", _SMOKE_OPS_CASES, ids=[case.name for case in _SMOKE_OPS_CASES]
    )
    def test_smoke_ops_ceilings_hold(self, case):
        # Wall ceilings gate in the perf-smoke job only, so a loaded host
        # cannot flake this test: zero the wall, keep the work counters.
        measured = run_case(case, repeats=1)
        report = _report(walls={case.name: 0.0}, ops=measured.ops)
        assert failed_gates(report) == []
