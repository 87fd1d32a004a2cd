"""CLI argument handling and artifact rendering."""

import re

import pytest

from repro.cli import build_parser, render_artifact
from repro.models.sweeps import SweepScale


def parse(*argv):
    return build_parser().parse_args(list(argv))


class TestParser:
    def test_artifact_required(self):
        with pytest.raises(SystemExit):
            parse()

    def test_defaults(self):
        args = parse("fig5")
        assert not args.paper
        assert args.seed == 1
        assert args.output is None

    def test_scale_flags(self):
        args = parse("fig5", "--runs", "3", "--sim-time", "200",
                     "--senders", "5", "20", "--bursts", "10", "500")
        assert args.runs == 3
        assert args.sim_time == 200.0
        assert args.senders == [5, 20]
        assert args.bursts == [10, 500]

    def test_runner_flags(self):
        args = parse("fig5", "--jobs", "4", "--cache-dir", "/tmp/c",
                     "--no-cache")
        assert args.jobs == 4
        assert args.cache_dir == "/tmp/c"
        assert args.no_cache

    def test_runner_flag_defaults(self):
        args = parse("fig5")
        assert args.jobs is None  # falls back to $REPRO_JOBS, then serial
        assert args.cache_dir is None
        assert not args.no_cache


class TestRenderArtifact:
    def test_list_shows_everything(self):
        text = render_artifact(parse("list"))
        for name in ("table1", "fig1", "fig12"):
            assert name in text

    def test_unknown_artifact_exits(self):
        with pytest.raises(SystemExit):
            render_artifact(parse("fig99"))

    def test_table1(self):
        assert "Cabletron" in render_artifact(parse("table1"))

    def test_analysis_figure(self):
        assert "# series" in render_artifact(parse("fig2"))

    def test_simulation_figure_with_tiny_scale(self):
        text = render_artifact(
            parse(
                "fig5",
                "--runs", "1",
                "--sim-time", "30",
                "--senders", "3",
                "--bursts", "10",
                "--no-cache",
            )
        )
        assert "Goodput" in text
        assert "DualRadio-10" in text
        assert "Sensor" in text

    def test_simulation_figure_cache_and_jobs_reproduce(self, tmp_path):
        tiny = ("fig5", "--runs", "1", "--sim-time", "30",
                "--senders", "3", "--bursts", "10")
        cold = render_artifact(
            parse(*tiny, "--cache-dir", str(tmp_path))
        )
        warm = render_artifact(
            parse(*tiny, "--cache-dir", str(tmp_path))
        )
        parallel = render_artifact(parse(*tiny, "--jobs", "2", "--no-cache"))
        assert warm == cold == parallel
        assert list(tmp_path.glob("*.json"))  # cache was populated

    def test_prototype_figure_with_coarse_step(self):
        text = render_artifact(parse("fig11", "--step", "1024", "--no-cache"))
        assert "Dual-Radio" in text
        assert "Sensor Radio" in text

    def test_prototype_figure_uses_cache(self, tmp_path):
        args = ("fig11", "--step", "1024", "--cache-dir", str(tmp_path))
        cold = render_artifact(parse(*args))
        warm = render_artifact(parse(*args))
        assert warm == cold
        assert list(tmp_path.glob("*.json"))  # prototype cells cached

    def test_output_writes_file(self, tmp_path):
        from repro.cli import main

        target = tmp_path / "t1.txt"
        assert main(["table1", "--output", str(target)]) == 0
        assert "Micaz" in target.read_text()


class TestShardCli:
    TINY = ("--runs", "1", "--sim-time", "30", "--senders", "3",
            "--bursts", "10")

    def test_shard_flag_parsed(self):
        args = parse("fig5", "--shard", "0/2")
        assert args.shard == "0/2"

    def test_shard_requires_cache(self):
        with pytest.raises(SystemExit):
            render_artifact(parse("fig5", "--shard", "0/2", "--no-cache"))

    def test_shard_rejects_analysis_artifacts(self):
        with pytest.raises(SystemExit):
            render_artifact(parse("fig1", "--shard", "0/2"))

    def test_shard_rejects_bad_spec(self, tmp_path):
        for bad in ("2/2", "x/2", "0"):
            with pytest.raises(SystemExit):
                render_artifact(
                    parse("fig5", "--shard", bad,
                          "--cache-dir", str(tmp_path))
                )

    def test_shard_writes_manifest_and_populates_cache(self, tmp_path):
        text = render_artifact(
            parse("fig5", *self.TINY, "--shard", "0/1",
                  "--cache-dir", str(tmp_path))
        )
        assert "shard 0/1" in text
        assert (tmp_path / "shard-0of1.manifest").exists()
        assert list(tmp_path.glob("*.json"))

    def test_shard_summary_counts_only_owned_cells(self, tmp_path):
        """Another shard's cached cells are neither owned nor served."""

        def summary(shard):
            text = render_artifact(
                parse("fig5", *self.TINY, "--shard", shard,
                      "--cache-dir", str(tmp_path))
            )
            found = re.search(
                r"(\d+)/\d+ cells owned \((\d+) computed, (\d+) served", text
            )
            return tuple(int(group) for group in found.groups())

        other_owned, _, _ = summary("1/2")
        assert other_owned > 0
        owned, computed, served = summary("0/2")
        assert owned > 0
        assert (computed, served) == (owned, 0)
        assert summary("0/2") == (owned, 0, owned)

    def test_prototype_shard_supported(self, tmp_path):
        text = render_artifact(
            parse("fig11", "--step", "2048", "--shard", "0/1",
                  "--cache-dir", str(tmp_path))
        )
        assert "fig11 shard 0/1" in text
        assert (tmp_path / "shard-0of1.manifest").exists()


class TestMergeShardsCli:
    def test_missing_manifest_fails(self, tmp_path, capsys):
        from repro.cli import main

        source = tmp_path / "empty"
        source.mkdir()
        rc = main(["merge-shards", str(tmp_path / "dest"), str(source)])
        assert rc == 1
        assert "no shard manifest" in capsys.readouterr().err

    def test_merge_after_shard_run(self, tmp_path, capsys):
        from repro.cli import main

        shard_dir = tmp_path / "s0"
        render_artifact(
            parse("fig5", *TestShardCli.TINY, "--shard", "0/1",
                  "--cache-dir", str(shard_dir))
        )
        dest = tmp_path / "merged"
        assert main(["merge-shards", str(dest), str(shard_dir)]) == 0
        out = capsys.readouterr().out
        assert "copied" in out
        assert sorted(p.name for p in dest.glob("*.json")) == sorted(
            p.name for p in shard_dir.glob("*.json")
        )


class TestScaleFromArgs:
    def test_paper_flag(self):
        from repro.cli.main import _scale_from_args

        scale = _scale_from_args(parse("fig5", "--paper"))
        assert scale.n_runs == SweepScale.paper().n_runs
        assert scale.sim_time_s == 5000.0

    def test_overrides_apply_on_top(self):
        from repro.cli.main import _scale_from_args

        scale = _scale_from_args(parse("fig5", "--paper", "--runs", "2"))
        assert scale.n_runs == 2
        assert scale.sim_time_s == 5000.0


class TestScenariosCli:
    def test_list_shows_every_registry(self, capsys):
        from repro.cli import main

        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("grid", "line", "uniform-random", "clustered",
                     "from-file", "unit-disc", "log-normal", "distance-prr",
                     "cbr", "poisson", "audio", "Cabletron", "Micaz"):
            assert name in out

    def test_requires_subcommand(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["scenarios"])


class TestRunCli:
    def test_composed_run_renders_report(self, capsys):
        from repro.cli import main

        rc = main([
            "run", "--topology", "line:n=4", "--propagation",
            "distance-prr:exponent=6", "--traffic", "poisson", "--senders",
            "2", "--burst", "10", "--sim-time", "20", "--no-cache",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "line(n=4)" in out
        assert "distance-prr(exponent=6)" in out
        assert "goodput" in out

    def test_run_uses_cache(self, tmp_path, capsys):
        from repro.cli import main
        from repro.runner import ResultCache

        argv = [
            "run", "--topology", "line:n=4", "--senders", "2", "--burst",
            "10", "--sim-time", "10", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        cache = ResultCache(tmp_path)
        assert len(cache) == 1

    def test_bad_topology_exits_cleanly(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="unknown topology"):
            main(["run", "--topology", "moebius", "--no-cache"])

    def test_partitioned_deployment_exits_cleanly(self, tmp_path):
        import json

        from repro.cli import main

        path = tmp_path / "split.json"
        path.write_text(json.dumps([[0, 0], [10, 0], [900, 0], [910, 0]]))
        with pytest.raises(SystemExit, match="partitioned"):
            main([
                "run", "--topology-file", str(path), "--senders", "2",
                "--sim-time", "5", "--no-cache",
            ])

    def test_topology_and_file_are_exclusive(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "l.json"
        path.write_text("[[0, 0], [10, 0]]")
        with pytest.raises(SystemExit, match="exclusive"):
            main(["run", "--topology", "grid", "--topology-file", str(path),
                  "--no-cache"])

    def test_output_writes_report_file(self, tmp_path, capsys):
        from repro.cli import main

        out_file = tmp_path / "report.txt"
        rc = main([
            "run", "--topology", "line:n=4", "--senders", "2", "--burst",
            "10", "--sim-time", "10", "--no-cache", "--output",
            str(out_file),
        ])
        assert rc == 0
        assert "scenario" in out_file.read_text()
