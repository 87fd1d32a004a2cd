"""Tests for the perf subsystem: phases, bench harness, gate, CLI."""

import json

import pytest

from repro.cli.main import main
from repro.perf import bench as perf_bench
from repro.perf import collect_phases, phase, phase_snapshot, record
from repro.perf.bench import (
    BENCH_SCHEMA,
    BenchReport,
    CaseResult,
    failed_gates,
    run_case,
    write_report,
)
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

    def test_ops_come_from_the_best_round(self, monkeypatch):
        # A fake clock: round i takes walls[i] seconds and reports ops
        # naming itself, so a mix-up between rounds shows in the result.
        walls = [3.0, 1.0, 2.0]
        clock = {"now": 0.0, "round": 0}

        def run(_state):
            i = clock["round"]
            clock["round"] += 1
            clock["now"] += walls[i]
            return {"round": float(i), "phase.sim_loop_s": walls[i] - 0.5}

        monkeypatch.setattr(perf_bench.time, "perf_counter", lambda: clock["now"])
        case = BenchCase(
            name="stub", summary="stub", setup=lambda: None, run=run, repeats=3
        )
        result = run_case(case)
        assert result.wall_s == 1.0
        assert result.ops == {"round": 1.0, "phase.sim_loop_s": 0.5}

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
        assert smoke == {
            "routing-build-lazy-1k",
            "routing-policy-1k",
            "routing-build-lazy-5k",
            "fig-cell",
            "scenario-compose-1k",
            "churn-1k",
        }
        assert full - smoke == {
            "routing-build-lazy-10k",
            "sim-loop-10k",
            "fig-cell-heavy",
            "scenario-compose-10k",
        }

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            bench_cases("nightly")

    def test_ceilings_need_their_case(self):
        assert ceilings({"case-a"}) == []
        gates = ceilings({"case-a", "routing-build-lazy-1k"})
        assert [gate.name for gate in gates] == ["routing-1k-trees"]


def _report(rev="abc123", walls=None, checks=None, ops=None):
    walls = walls or {"case-a": 1.0, "case-b": 2.0}
    ops = {"x": 1.0} if ops is None else ops
    return BenchReport(
        rev=rev,
        suite="smoke",
        created="2026-07-29T00:00:00",
        python="3.11",
        platform="test",
        results={
            name: CaseResult(wall_s=wall, repeats=1, ops=dict(ops))
            for name, wall in walls.items()
        },
        checks=dict(checks or {}),
    )


class TestReportsAndGate:
    def test_write_load_round_trip(self, tmp_path):
        report = _report(checks={"fig-cell-events": 19_728.0})
        path = write_report(report, tmp_path)
        assert path.name == "BENCH_abc123.json"
        payload = json.loads(path.read_text())
        assert set(payload) == {
            "schema", "rev", "suite", "created", "python", "platform",
            "results", "checks",
        }
        assert payload["schema"] == BENCH_SCHEMA == 1
        assert payload["rev"] == "abc123"
        assert payload["python"] == "3.11"
        assert payload["platform"] == "test"
        assert payload["results"]["case-a"] == {
            "wall_s": 1.0, "repeats": 1, "ops": {"x": 1.0}
        }
        assert payload["results"]["case-b"]["ops"] == {"x": 1.0}
        assert payload["checks"] == {"fig-cell-events": 19_728.0}

    def test_failed_gates(self):
        # An ops ceiling holds at its limit and fails one above it.
        def fig_cell(events):
            return _report(walls={"fig-cell": 0.1}, ops={"events": events})

        assert FIG_CELL_EVENTS == 19_728
        assert failed_gates(fig_cell(19_728)) == []
        assert failed_gates(fig_cell(19_729)) == [
            "fig-cell-events: fig-cell events = 19729, over the 19728 ceiling"
        ]


class TestBenchCli:
    def test_list_exits_clean(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "routing-build-lazy-1k" in out

    def test_committed_bench_files_do_not_gate(
        self, tmp_path, monkeypatch, capsys
    ):
        # A committed-style report recorded on this kind of host sits in
        # the output directory with walls 10x below this run's.  Only the
        # ceilings gate, so the run passes and leaves that file alone.
        import platform
        import sys
        import time

        import repro.perf.suite as suite_module

        def run(_state):
            time.sleep(1.0)
            return {"events": 1000.0}

        case = BenchCase(
            name="fig-cell-heavy",
            summary="toy contention cell",
            setup=lambda: None,
            run=run,
            repeats=1,
        )
        monkeypatch.setattr(suite_module, "all_cases", lambda: (case,))
        monkeypatch.setattr(perf_bench, "git_rev", lambda directory=".": "here")
        committed = write_report(
            _report(
                rev="committed",
                walls={"fig-cell-heavy": 0.1},
                ops={"events": 1000.0},
            ),
            tmp_path,
        )
        payload = json.loads(committed.read_text())
        payload["host"] = (
            f"{platform.system()}-{platform.machine()}"
            f"-py{sys.version_info.major}.{sys.version_info.minor}"
        )
        committed.write_text(json.dumps(payload, indent=2, sort_keys=True))
        before = committed.read_text()
        assert main(["bench", "--output-dir", str(tmp_path)]) == 0
        assert committed.read_text() == before
        written = json.loads((tmp_path / "BENCH_here.json").read_text())
        assert written["results"]["fig-cell-heavy"]["wall_s"] >= 1.0
        assert written["checks"]["fig-cell-heavy-events"] == 1000.0
        assert "FAIL" not in capsys.readouterr().err

        # A ceiling breach still fails a run.
        over = _fake_case("fig-cell", {"events": FIG_CELL_EVENTS + 1.0})
        monkeypatch.setattr(suite_module, "all_cases", lambda: (over,))
        assert main(["bench", "--output-dir", str(tmp_path), "--no-write"]) == 1
        assert "FAIL fig-cell-events" in capsys.readouterr().err

    def test_ceiling_check_prints_value_and_limit(self, monkeypatch, capsys):
        import repro.perf.suite as suite_module

        case = _fake_case("fig-cell", {"events": 1000.0})
        monkeypatch.setattr(suite_module, "all_cases", lambda: (case,))
        assert main(["bench", "--no-write"]) == 0
        lines = {
            line.split()[0]: line.split()[1:]
            for line in capsys.readouterr().out.splitlines()
        }
        assert lines["fig-cell-events"] == [
            "1000", "<=", "19728", "fig-cell", "events"
        ]
        assert lines["fig-cell-wall"][1:] == [
            "<=", "0.403", "fig-cell", "wall_s"
        ]

    def test_repeats_below_one_rejected(self):
        with pytest.raises(SystemExit, match="--repeats must be at least 1"):
            main(["bench", "--repeats", "0", "--no-write"])

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
                "--profile",
                str(profile_dir),
            ]
        )
        assert code == 0
        assert (profile_dir / "tiny.pstats").exists()
        assert "profiles:" in capsys.readouterr().out

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
