"""Sharding: specs, deterministic partitioning, manifests, merging."""

import json

import pytest

from repro.models.scenario import ScenarioConfig, run_scenario
from repro.runner import (
    MergeError,
    ResultCache,
    ShardSpec,
    SweepRunner,
    config_key,
    merge_shards,
    shard_index,
    write_shard_manifest,
)
from repro.runner.shard import manifest_path, read_shard_manifest

TINY = ScenarioConfig(
    rows=3, cols=3, sink=4, n_senders=2, sim_time_s=10.0, burst_packets=10
)
CONFIGS = [TINY.replace(seed=seed) for seed in range(1, 9)]
KEYS = [config_key(config) for config in CONFIGS]


class TestShardSpec:
    def test_parse_round_trip(self):
        spec = ShardSpec.parse("1/3")
        assert (spec.index, spec.count) == (1, 3)
        assert str(spec) == "1/3"
        assert ShardSpec.parse(str(spec)) == spec

    def test_invalid_specs_rejected(self):
        for bad in ("", "1", "1/0", "3/3", "-1/2", "a/b", "1/2/3"):
            with pytest.raises(ValueError):
                ShardSpec.parse(bad)

    def test_owns_matches_shard_index(self):
        for key in KEYS:
            owners = [
                index
                for index in range(3)
                if ShardSpec(index, 3).owns(key)
            ]
            assert owners == [shard_index(key, 3)]


class TestShardIndex:
    def test_partition_is_disjoint_and_exhaustive(self):
        for count in (1, 2, 3, 5):
            assignment = {key: shard_index(key, count) for key in KEYS}
            assert set(assignment.values()) <= set(range(count))
            # every key lands in exactly one shard, by construction of a
            # single-valued function; double-check via per-shard slices
            slices = [
                {key for key, shard in assignment.items() if shard == index}
                for index in range(count)
            ]
            union = set().union(*slices)
            assert union == set(KEYS)
            assert sum(len(piece) for piece in slices) == len(KEYS)

    def test_stable_across_calls_and_key_source(self):
        for key in KEYS:
            assert shard_index(key, 4) == shard_index(key, 4)
        # identity is derived from the config, not the machine: the same
        # config re-keyed gives the same shard
        assert shard_index(config_key(CONFIGS[0]), 4) == shard_index(
            KEYS[0], 4
        )

    def test_cache_key_method_matches_config_key(self):
        assert CONFIGS[0].cache_key() == KEYS[0]

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            shard_index("not-hex!", 2)
        with pytest.raises(ValueError):
            shard_index(KEYS[0], 0)


class TestShardedRunner:
    def test_shard_without_cache_rejected(self):
        with pytest.raises(ValueError, match="requires a result cache"):
            SweepRunner(shard=ShardSpec(0, 2))

    def test_complementary_shards_cover_plan_exactly_once(self, tmp_path):
        executed: dict[int, list[int]] = {}
        for index in range(2):
            seen: list[int] = []

            def spy(config, _seen=seen):
                _seen.append(config.seed)
                return run_scenario(config)

            SweepRunner(
                jobs=1,
                cache=ResultCache(tmp_path / str(index)),
                shard=ShardSpec(index, 2),
            ).map(spy, CONFIGS)
            executed[index] = seen
            owned = [
                c.seed for c, k in zip(CONFIGS, KEYS) if shard_index(k, 2) == index
            ]
            assert seen == owned
        assert 0 < len(executed[0]) < len(CONFIGS)  # a genuine split
        all_seeds = sorted(executed[0] + executed[1])
        assert all_seeds == sorted(c.seed for c in CONFIGS)
        assert set(executed[0]).isdisjoint(executed[1])

    def test_out_of_shard_cell_served_from_cache(self, tmp_path):
        spec = ShardSpec(0, 2)
        owned = [spec.owns(key) for key in KEYS]
        foreign = owned.index(False)
        cache = ResultCache(tmp_path)
        cached = run_scenario(CONFIGS[foreign])
        cache.put(CONFIGS[foreign], cached)
        seen: list[int] = []

        def spy(config):
            seen.append(config.seed)
            return run_scenario(config)

        results = SweepRunner(jobs=1, cache=cache, shard=spec).map(
            spy, CONFIGS
        )
        assert results[foreign] == cached
        assert seen == [c.seed for c, mine in zip(CONFIGS, owned) if mine]
        for index, (result, mine) in enumerate(zip(results, owned)):
            assert (result is not None) == (mine or index == foreign)

    def test_sharded_progress_counts_only_cells_it_completes(self, tmp_path):
        spec = ShardSpec(0, 2)
        owned = [spec.owns(key) for key in KEYS]
        foreign = owned.index(False)
        cache = ResultCache(tmp_path)
        cache.put(CONFIGS[foreign], run_scenario(CONFIGS[foreign]))
        events = []
        SweepRunner(jobs=1, cache=cache, shard=spec, progress=events.append).map(
            run_scenario, CONFIGS
        )
        # Owned cells plus the cached foreign one; the other shard's
        # uncached cells are neither progress nor ETA.
        assert events[-1].total == sum(owned) + 1 < len(CONFIGS)
        assert events[-1].completed == events[-1].total
        assert events[-1].eta_s == 0.0
        assert "done in" in events[-1].format()


class TestManifest:
    def test_write_and_read(self, tmp_path):
        spec = ShardSpec(1, 4)
        path = write_shard_manifest(tmp_path, spec, KEYS[:3], artifact="fig5")
        assert path == manifest_path(tmp_path, spec)
        assert path.name == "shard-1of4.manifest"
        payload = read_shard_manifest(path)
        assert payload["shard"] == {"index": 1, "count": 4}
        assert payload["cells"] == sorted(KEYS[:3])
        assert payload["artifact"] == "fig5"

    def test_manifest_is_not_a_cache_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        write_shard_manifest(tmp_path, ShardSpec(0, 1), KEYS)
        assert len(cache) == 0  # *.json glob must not see manifests

    def test_read_rejects_non_manifests(self, tmp_path):
        bogus = tmp_path / "x.manifest"
        bogus.write_text("{}")
        with pytest.raises(MergeError):
            read_shard_manifest(bogus)
        bogus.write_text("not json")
        with pytest.raises(MergeError):
            read_shard_manifest(bogus)
        with pytest.raises(MergeError):
            read_shard_manifest(tmp_path / "absent.manifest")

    def test_read_rejects_cells_that_are_not_keys(self, tmp_path):
        for bad in ("../../x", KEYS[0].upper(), KEYS[0][:-1], KEYS[0] + "\n", 7):
            path = write_shard_manifest(tmp_path, ShardSpec(0, 1), [bad])
            with pytest.raises(MergeError, match="not a config-hash key"):
                read_shard_manifest(path)

    def test_read_rejects_bad_shards(self, tmp_path):
        path = write_shard_manifest(tmp_path, ShardSpec(0, 2), KEYS[:1])
        payload = json.loads(path.read_text())
        for bad in (
            {"index": "0", "count": 2},
            {"index": 0, "count": 2.5},
            {"index": True, "count": 2},
            {"index": 2, "count": 2},
            {"index": 0, "count": 0},
            {"index": 0},
            [0, 2],
            3,
        ):
            payload["shard"] = bad
            path.write_text(json.dumps(payload))
            with pytest.raises(MergeError, match="bad shard"):
                read_shard_manifest(path)


def _run_shard(directory, index, count, configs=CONFIGS):
    """Execute one shard into ``directory`` and write its manifest."""
    spec = ShardSpec(index, count)
    cache = ResultCache(directory)
    SweepRunner(jobs=1, cache=cache, shard=spec).map(run_scenario, configs)
    keys = [key for key in (config_key(c) for c in configs) if spec.owns(key)]
    write_shard_manifest(directory, spec, keys)
    return keys


class TestMergeShards:
    def test_merge_assembles_union(self, tmp_path):
        keys0 = _run_shard(tmp_path / "s0", 0, 2)
        keys1 = _run_shard(tmp_path / "s1", 1, 2)
        dest = tmp_path / "merged"
        report = merge_shards(dest, [tmp_path / "s0", tmp_path / "s1"])
        assert report.complete
        assert report.copied == len(KEYS)
        assert report.shard_count == 2
        assert report.shards_seen == {0, 1}
        assert sorted(p.stem for p in dest.glob("*.json")) == sorted(
            keys0 + keys1
        )
        # merged cache serves every cell without recomputation
        cache = ResultCache(dest)
        results = SweepRunner(cache=cache).map(run_scenario, CONFIGS)
        assert cache.stats.hits == len(CONFIGS)
        assert cache.stats.stores == 0
        assert all(result is not None for result in results)

    def test_merge_is_idempotent(self, tmp_path):
        _run_shard(tmp_path / "s0", 0, 1)
        dest = tmp_path / "merged"
        first = merge_shards(dest, [tmp_path / "s0"])
        second = merge_shards(dest, [tmp_path / "s0"])
        assert first.copied == len(KEYS)
        assert second.copied == 0
        assert second.already_present == len(KEYS)

    def test_partial_merge_reports_missing_shards(self, tmp_path):
        _run_shard(tmp_path / "s0", 0, 3)
        report = merge_shards(tmp_path / "merged", [tmp_path / "s0"])
        assert not report.complete
        assert report.missing_shards == [1, 2]
        assert "no manifest for shard(s) 1, 2" in report.summary()

    def test_missing_cell_files_tolerated(self, tmp_path):
        keys = _run_shard(tmp_path / "s0", 0, 1)
        victim = tmp_path / "s0" / f"{keys[0]}.json"
        victim.unlink()  # e.g. deleted after the manifest was written
        report = merge_shards(tmp_path / "merged", [tmp_path / "s0"])
        assert report.missing == 1
        assert report.copied == len(keys) - 1
        assert not report.complete

    def test_mislabeled_entry_is_rejected(self, tmp_path):
        """A 2-sender 10 s entry copied under a 4-sender 20 s config's key
        (and listed in the manifest) is not merged."""
        keys = _run_shard(tmp_path / "s0", 0, 1)
        other = config_key(TINY.replace(n_senders=4, sim_time_s=20.0))
        source = tmp_path / "s0"
        (source / f"{other}.json").write_bytes(
            (source / f"{keys[0]}.json").read_bytes()
        )
        write_shard_manifest(source, ShardSpec(0, 1), keys + [other])
        dest = tmp_path / "merged"
        report = merge_shards(dest, [source])
        assert report.rejected == 1
        assert report.copied == len(keys)
        assert not (dest / f"{other}.json").exists()
        assert not report.complete
        assert "1 rejected" in report.summary()

    def test_refuses_schema_mismatch(self, tmp_path):
        _run_shard(tmp_path / "s0", 0, 1)
        path = manifest_path(tmp_path / "s0", ShardSpec(0, 1))
        payload = json.loads(path.read_text())
        payload["schema"] = payload["schema"] + 1
        path.write_text(json.dumps(payload))
        with pytest.raises(MergeError, match="schema"):
            merge_shards(tmp_path / "merged", [tmp_path / "s0"])

    def test_refuses_version_mismatch(self, tmp_path):
        _run_shard(tmp_path / "s0", 0, 1)
        path = manifest_path(tmp_path / "s0", ShardSpec(0, 1))
        payload = json.loads(path.read_text())
        payload["version"] = "0.0.0-elsewhere"
        path.write_text(json.dumps(payload))
        with pytest.raises(MergeError, match="0.0.0-elsewhere"):
            merge_shards(tmp_path / "merged", [tmp_path / "s0"])

    def test_refuses_shard_count_mismatch(self, tmp_path):
        _run_shard(tmp_path / "s0", 0, 2)
        _run_shard(tmp_path / "s1", 0, 3)
        with pytest.raises(MergeError, match="shard count"):
            merge_shards(tmp_path / "m", [tmp_path / "s0", tmp_path / "s1"])

    def test_refuses_sources_without_manifest(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(MergeError, match="no shard manifest"):
            merge_shards(tmp_path / "merged", [empty])

    def test_refuses_to_write_outside_destination(self, tmp_path):
        # A manifest from another host lists a path, not a key: the merge
        # must neither read outside the source nor write outside dest.
        source = tmp_path / "a" / "b"
        (tmp_path / "x.json").write_text("{}")
        write_shard_manifest(source, ShardSpec(0, 1), ["../../x"])
        dest = tmp_path / "out" / "m" / "dest"
        with pytest.raises(MergeError, match="not a config-hash key"):
            merge_shards(dest, [source])
        assert not (tmp_path / "out" / "x.json").exists()

    def test_refuses_file_destination(self, tmp_path):
        _run_shard(tmp_path / "s0", 0, 1)
        occupied = tmp_path / "occupied"
        occupied.write_text("")
        with pytest.raises(MergeError, match="not a directory"):
            merge_shards(occupied, [tmp_path / "s0"])
