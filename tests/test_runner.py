"""Runner subsystem: config hashing, result cache, parallel executor."""

import dataclasses
import json
import os
import time

import pytest

from repro.models.scenario import ScenarioConfig, run_scenario
from repro.models.sweeps import SweepScale, run_sweep, sweep_plan
from repro.runner import (
    ResultCache,
    SweepRunner,
    canonical_json,
    config_key,
    resolve_jobs,
    runner_from_env,
)
from repro.runner.cache import result_from_dict, result_to_dict
from repro.runner.executor import JOBS_ENV
from repro.runner.hashing import CACHE_SCHEMA_VERSION
from repro.runner.progress import ProgressTracker
from repro.stats.metrics import RunResult
from repro.topology.registry import TopologySpec

#: A deliberately tiny scenario (3×3 grid, 10 simulated seconds) so each
#: run costs milliseconds.
TINY = ScenarioConfig(
    rows=3, cols=3, sink=4, n_senders=2, sim_time_s=10.0, burst_packets=10
)

#: A tiny sweep: 2 cells × 2 replicas + 2 baseline cells = 8 runs.
TINY_SCALE = SweepScale(senders=(2, 3), bursts=(10,), n_runs=2, sim_time_s=10.0)

#: Two three-node islands 1 km apart (as in test_disconnected_scenarios):
#: the far island's senders cannot reach the sink, so the cell raises.
ISLANDS = ScenarioConfig(
    topology=TopologySpec.of(
        "from-file",
        positions=(
            (0, 0.0, 0.0),
            (1, 30.0, 0.0),
            (2, 60.0, 0.0),
            (3, 1000.0, 0.0),
            (4, 1030.0, 0.0),
            (5, 1060.0, 0.0),
        ),
    ),
    sink=0,
    n_senders=5,
    burst_packets=10,
    rate_bps=2000.0,
    sim_time_s=30.0,
)


def tiny_result(seed: int = 1) -> RunResult:
    return run_scenario(TINY.replace(seed=seed))


def _worker_pid(_config) -> int:
    """Module-level (picklable) cell: which process ran it."""
    return os.getpid()


class TestConfigKey:
    def test_stable_for_equal_configs(self):
        assert config_key(TINY) == config_key(TINY.replace())

    def test_any_field_change_changes_key(self):
        for changes in (
            {"seed": 2},
            {"n_senders": 3},
            {"burst_packets": 100},
            {"sim_time_s": 20.0},
            {"flow_control": False},
        ):
            assert config_key(TINY.replace(**changes)) != config_key(TINY)

    def test_nested_radio_spec_participates(self):
        tweaked = TINY.replace(low_spec=TINY.low_spec.replace(rate_bps=1.0))
        assert config_key(tweaked) != config_key(TINY)

    def test_canonical_json_is_sorted_valid_json(self):
        import repro

        payload = json.loads(canonical_json(TINY))
        assert payload["schema"] == CACHE_SCHEMA_VERSION
        assert payload["version"] == repro.__version__
        assert payload["type"].endswith("ScenarioConfig")
        assert payload["config"]["n_senders"] == 2

    def test_different_config_types_cannot_collide(self):
        @dataclasses.dataclass
        class Imposter:
            seed: int = 1

        assert config_key(Imposter()) != config_key(Imposter(seed=2))
        assert config_key(Imposter()) not in (config_key(TINY),)

    def test_rejects_unhashable_values(self):
        with pytest.raises(TypeError):
            canonical_json({"fn": print})

    def test_nonfinite_float_does_not_collide_with_string(self):
        @dataclasses.dataclass
        class Holder:
            value: object

        assert canonical_json(Holder(float("inf"))) != canonical_json(
            Holder("inf")
        )
        assert config_key(Holder(float("nan"))) != config_key(Holder("nan"))


class TestResultSerialization:
    def test_roundtrip(self):
        result = tiny_result()
        assert result_from_dict(result_to_dict(result)) == result

    def test_unknown_field_rejected(self):
        data = result_to_dict(tiny_result())
        data["bogus"] = 1
        with pytest.raises(ValueError):
            result_from_dict(data)


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(TINY) is None
        result = tiny_result()
        cache.put(TINY, result)
        assert cache.get(TINY) == result
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1

    def test_config_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(TINY, tiny_result())
        assert cache.get(TINY.replace(seed=99)) is None
        assert cache.get(TINY.replace(burst_packets=2500)) is None

    def test_corrupted_entry_recovers(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = tiny_result()
        path = cache.put(TINY, result)
        path.write_text("{ not json at all")
        assert cache.get(TINY) is None
        assert not path.exists()  # evicted
        assert cache.stats.evicted_corrupt == 1
        cache.put(TINY, result)
        assert cache.get(TINY) == result

    def test_entry_under_another_key_is_evicted(self, tmp_path):
        """A 2-sender 10 s entry copied under a 4-sender 20 s config's key
        is not served as that config's result."""
        cache = ResultCache(tmp_path)
        result = tiny_result()
        source = cache.put(TINY, result)
        other = TINY.replace(n_senders=4, sim_time_s=20.0)
        target = cache.path_for(other)
        target.write_bytes(source.read_bytes())
        assert cache.get(other) is None
        assert not target.exists()  # evicted
        assert cache.stats.hits == 0
        assert cache.stats.misses == 1
        assert cache.stats.evicted_corrupt == 1
        assert cache.get(TINY) == result

    def test_binary_garbage_entry_recovers(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put(TINY, tiny_result())
        path.write_bytes(b"\xff\xfe\x00 not utf-8 \x80")
        assert cache.get(TINY) is None
        assert not path.exists()
        assert cache.stats.evicted_corrupt == 1

    def test_cache_dir_must_not_be_a_file(self, tmp_path):
        target = tmp_path / "occupied"
        target.write_text("")
        with pytest.raises(ValueError):
            ResultCache(target)

    def test_unwritable_cache_degrades_instead_of_raising(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")  # mkdir under a file → OSError on write
        cache = ResultCache(blocker / "cache")
        with pytest.warns(UserWarning, match="continuing without caching"):
            cache.put(TINY, tiny_result())
        assert cache.stats.write_errors == 1
        assert cache.stats.stores == 0
        # Subsequent failures are silent (one warning per cache).
        cache.put(TINY.replace(seed=2), tiny_result(seed=2))
        assert cache.stats.write_errors == 2

    def test_stale_tmp_files_swept_fresh_ones_kept(self, tmp_path):
        # A writer killed between write and os.replace leaves
        # ``<key>.tmp<pid>`` behind; the next cache on the directory
        # removes it once it is past the hour an in-flight write could
        # plausibly take, and leaves younger ones to their writers.
        now = time.time()
        stale = tmp_path / "deadbeef.tmp123"
        stale.write_text("partial write")
        os.utime(stale, times=(0, 0))  # epoch-old
        orphan = tmp_path / "beef.tmp124"
        orphan.write_text("partial write")
        os.utime(orphan, times=(now - 3700.0, now - 3700.0))
        young = tmp_path / "face.tmp125"
        young.write_text("in-flight write")
        os.utime(young, times=(now - 3500.0, now - 3500.0))
        fresh = tmp_path / "cafe.tmp456"
        fresh.write_text("in-flight write")
        ResultCache(tmp_path)
        assert not stale.exists()
        assert not orphan.exists()
        assert young.exists()
        assert fresh.exists()

    def test_stale_tmp_files_removed_and_counted(self, tmp_path):
        # An orphan left after the cache was built goes at the next sweep,
        # which reports how many files it removed.
        cache = ResultCache(tmp_path)
        stale = tmp_path / "deadbeef.tmp99"
        stale.write_text("orphan")
        os.utime(stale, times=(0, 0))
        assert cache._sweep_stale_tmp_files() == 1
        assert not stale.exists()
        assert cache._sweep_stale_tmp_files() == 0

    def test_truncated_and_stale_schema_entries_recover(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put(TINY, tiny_result())
        entry = json.loads(path.read_text())
        entry["schema"] = CACHE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(entry))
        assert cache.get(TINY) is None
        path2 = cache.put(TINY, tiny_result())
        del entry["result"]
        entry["schema"] = CACHE_SCHEMA_VERSION
        path2.write_text(json.dumps(entry))
        assert cache.get(TINY) is None
        assert len(cache) == 0

    def test_len_counts_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert len(cache) == 0
        cache.put(TINY, tiny_result())
        cache.put(TINY.replace(seed=2), tiny_result(seed=2))
        assert len(cache) == 2


class TestPrototypeRoundTrip:
    def test_prototype_result_survives_cache(self, tmp_path):
        from repro.testbed.experiment import (
            PrototypeConfig,
            run_prototype,
        )

        config = PrototypeConfig(threshold_bytes=1024.0, n_messages=50)
        result = run_prototype(config)
        cache = ResultCache(tmp_path)
        cache.put(config, result)
        restored = ResultCache(tmp_path).get(config)
        assert restored == result
        assert restored.dual_breakdown == result.dual_breakdown

    def test_entries_tagged_with_their_result_type(self, tmp_path):
        from repro.testbed.experiment import PrototypeConfig, run_prototype

        config = PrototypeConfig(threshold_bytes=1024.0, n_messages=50)
        cache = ResultCache(tmp_path)
        proto_path = cache.put(config, run_prototype(config))
        run_path = cache.put(TINY, tiny_result())
        assert json.loads(proto_path.read_text())["result_type"] == (
            "PrototypeResult"
        )
        assert json.loads(run_path.read_text())["result_type"] == "RunResult"


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs(None) == 1

    def test_env_supplies_default(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "3")
        assert resolve_jobs(None) == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "3")
        assert resolve_jobs(2) == 2

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) >= 1

    def test_invalid_env_raises(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "many")
        with pytest.raises(ValueError):
            resolve_jobs(None)

    def test_runner_from_env_wires_cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv(JOBS_ENV, "2")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        runner = runner_from_env()
        assert runner.jobs == 2
        assert runner.cache is not None
        assert runner.cache.directory == tmp_path
        monkeypatch.delenv("REPRO_CACHE_DIR")
        monkeypatch.delenv(JOBS_ENV)
        runner = runner_from_env()
        assert runner.jobs == 1
        assert runner.cache is None


class TestExecutor:
    configs = [TINY.replace(seed=seed) for seed in (1, 2, 3, 4)]

    def test_serial_preserves_order(self):
        results = SweepRunner(jobs=1).map(run_scenario, self.configs)
        assert [r.model for r in results] == ["dual"] * 4
        assert results == [run_scenario(c) for c in self.configs]

    def test_serial_executes_in_order(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "2")  # explicit jobs=1 beats the env
        seen = []

        def fn(config):  # a closure: only in-process execution can run it
            seen.append(config.seed)
            return config.seed * 10

        assert SweepRunner(jobs=1).map(fn, self.configs) == [10, 20, 30, 40]
        assert seen == [1, 2, 3, 4]

    def test_parallel_matches_serial_exactly(self):
        serial = SweepRunner(jobs=1).map(run_scenario, self.configs)
        parallel = SweepRunner(jobs=2).map(run_scenario, self.configs)
        assert parallel == serial

    def test_single_pending_cell_runs_in_process(self, tmp_path):
        # One cell costs less than a pool spawn; the runner shortcuts.
        cache = ResultCache(tmp_path)
        for config in self.configs[:3]:
            cache.put(config, run_scenario(config))
        seen = []

        def local_closure(config):  # unpicklable on purpose
            seen.append(config.seed)
            return run_scenario(config)

        results = SweepRunner(jobs=4, cache=cache).map(
            local_closure, self.configs
        )
        assert seen == [4]
        assert results == [run_scenario(c) for c in self.configs]

    def test_zero_jobs_means_all_cores(self):
        assert SweepRunner(jobs=0).jobs == (os.cpu_count() or 1)

    def test_default_runner_honours_jobs_env(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert SweepRunner().jobs == 1
        assert SweepRunner().map(_worker_pid, [0, 1]) == [os.getpid()] * 2
        monkeypatch.setenv(JOBS_ENV, "2")
        runner = SweepRunner()
        assert runner.jobs == 2
        # Two pending cells under $REPRO_JOBS=2 run in worker processes.
        pids = runner.map(_worker_pid, [0, 1])
        assert os.getpid() not in pids

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_cell_propagates_and_is_not_cached(self, tmp_path, jobs):
        cache = ResultCache(tmp_path)
        batch = [self.configs[0], ISLANDS, self.configs[1]]
        with pytest.raises(ValueError, match="cannot reach sink 0"):
            SweepRunner(jobs=jobs, cache=cache).map(run_scenario, batch)
        assert not cache.path_for(ISLANDS).exists()

    def test_cache_hits_skip_execution(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = SweepRunner(jobs=1, cache=cache).map(run_scenario, self.configs)
        assert cache.stats.stores == len(self.configs)
        warm_cache = ResultCache(tmp_path)
        second = SweepRunner(jobs=1, cache=warm_cache).map(
            run_scenario, self.configs
        )
        assert second == first
        assert warm_cache.stats.hits == len(self.configs)
        assert warm_cache.stats.stores == 0

    def test_progress_events(self):
        events = []
        SweepRunner(jobs=1, progress=events.append).map(
            run_scenario, self.configs
        )
        assert [e.completed for e in events] == [1, 2, 3, 4]
        assert events[-1].total == 4
        assert events[-1].cache_hits == 0
        assert all(not e.cached for e in events)

    def test_progress_reports_cache_hits_and_mixed_batches(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(self.configs[1], run_scenario(self.configs[1]))
        events = []
        results = SweepRunner(jobs=1, cache=cache, progress=events.append).map(
            run_scenario, self.configs
        )
        assert results == [run_scenario(c) for c in self.configs]
        assert events[-1].cache_hits == 1
        assert sum(e.cached for e in events) == 1


class TestProgressTracker:
    def test_eta_paced_by_computed_cells_only(self):
        clock = iter([0.0, 10.0, 20.0]).__next__
        tracker = ProgressTracker(total=3, clock=clock)
        hit = tracker.cell_done(0, "a", cached=True)
        assert hit.eta_s is None  # no computed cells yet
        computed = tracker.cell_done(1, "b", cached=False)
        assert computed.eta_s == pytest.approx(20.0)  # 20 s/cell × 1 left

    def test_format_mentions_cache_and_completion(self):
        tracker = ProgressTracker(total=2, clock=iter([0.0, 1.0, 2.0]).__next__)
        line = tracker.cell_done(0, "cell a", cached=True).format()
        assert "cache hit" in line and "[1/2]" in line
        line = tracker.cell_done(1, "cell b", cached=False).format()
        assert "done in" in line and "(1/2 cached)" in line


class TestSweepIntegration:
    def test_sweep_plan_layout(self):
        plan = sweep_plan("SH", TINY_SCALE, rate_bps=2000.0)
        # 1 burst × 2 sender counts × 2 replicas + (sensor + wifi) × 2 × 2
        assert len(plan) == 12
        assert [p.config.seed for p in plan[:2]] == [1, 2]
        assert {p.label for p in plan} == {"DualRadio-10", "Sensor", "802.11"}

    def test_parallel_and_cached_sweeps_are_identical(self, tmp_path):
        serial = run_sweep("SH", TINY_SCALE, rate_bps=2000.0)
        parallel = run_sweep(
            "SH", TINY_SCALE, rate_bps=2000.0, runner=SweepRunner(jobs=2)
        )
        cache = ResultCache(tmp_path)
        cold = run_sweep(
            "SH", TINY_SCALE, rate_bps=2000.0,
            runner=SweepRunner(jobs=1, cache=cache),
        )
        warm_cache = ResultCache(tmp_path)
        warm = run_sweep(
            "SH", TINY_SCALE, rate_bps=2000.0,
            runner=SweepRunner(jobs=1, cache=warm_cache),
        )
        for other in (parallel, cold, warm):
            assert other.cells == serial.cells
        assert warm_cache.stats.hits == 12
        assert warm_cache.stats.stores == 0
        # Byte-identical summaries, as the figures consume them.
        for label, per_count in serial.cells.items():
            for n, cell in per_count.items():
                assert repr(warm.cells[label][n].summary()) == repr(
                    cell.summary()
                )

    def test_run_replicated_accepts_runner(self, tmp_path):
        from repro.models.scenario import run_replicated

        results, summary = run_replicated(TINY, n_runs=2)
        cached_runner = SweepRunner(jobs=1, cache=ResultCache(tmp_path))
        results2, summary2 = run_replicated(TINY, n_runs=2, runner=cached_runner)
        assert results2 == results
        assert repr(summary2) == repr(summary)

    def test_prototype_warm_cache_recomputes_nothing(self, tmp_path, monkeypatch):
        """Acceptance: a warm prototype cache performs zero recomputations."""
        from repro.testbed import experiment

        thresholds = [1024.0, 2048.0, 4096.0]
        executions: list[float] = []
        real_run = experiment.run_prototype

        def counting_run(config):
            executions.append(config.threshold_bytes)
            return real_run(config)

        monkeypatch.setattr(experiment, "run_prototype", counting_run)
        cold_cache = ResultCache(tmp_path)
        cold = experiment.sweep_thresholds(
            thresholds,
            runner=SweepRunner(jobs=1, cache=cold_cache),
        )
        assert executions == thresholds
        assert cold_cache.stats.stores == len(thresholds)
        executions.clear()
        warm_cache = ResultCache(tmp_path)
        warm = experiment.sweep_thresholds(
            thresholds,
            runner=SweepRunner(jobs=1, cache=warm_cache),
        )
        assert executions == []  # zero recomputations
        assert warm_cache.stats.hits == len(thresholds)
        assert warm_cache.stats.stores == 0
        assert warm == cold

    def test_prototype_sweep_parallel_matches_serial(self):
        from repro.testbed.experiment import sweep_thresholds

        thresholds = [1024.0, 2048.0]
        serial = sweep_thresholds(thresholds)
        parallel = sweep_thresholds(thresholds, runner=SweepRunner(jobs=2))
        assert parallel == serial
