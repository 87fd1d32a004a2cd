"""Golden-trace determinism: every execution mode, byte for byte, pinned.

Distributed results are only trustworthy if execution mode can never
change them.  These tests run one small sweep every way the runner can
— in-process, a 2-worker process pool, and two complementary shards
merged via the real manifest/merge path — and assert the serialized
results are byte-identical.  One digest is pinned as a repo constant: if
it changes, either the simulator's semantics changed (bump
:data:`repro.runner.hashing.CACHE_SCHEMA_VERSION` and re-pin, in the
same commit that explains why) or a nondeterminism bug crept in (fix
it).
"""

import pytest

from repro.cli.main import build_parser, render_artifact
from repro.models.scenario import run_scenario
from repro.models.sweeps import SweepScale, run_sweep, sweep_digest, sweep_plan
from repro.runner import (
    ResultCache,
    ShardSpec,
    SweepRunner,
    config_key,
    merge_shards,
    results_digest,
    write_shard_manifest,
)

#: The golden sweep: small enough for CI, big enough that every model
#: (dual, sensor, 802.11) and both sender counts contribute cells.
GOLDEN_SCALE = SweepScale(
    senders=(2, 3), bursts=(10,), n_runs=1, sim_time_s=10.0
)
GOLDEN_CASE = "SH"
GOLDEN_RATE = 2000.0

#: sha256 of the canonical serialization of the golden sweep's results.
#: Pinned on purpose: regressions in determinism or silent semantic
#: drift in the simulator must be LOUD.  Re-pin only with a schema bump.
#: Re-pinned with CACHE_SCHEMA_VERSION 6: MAC runs now export a
#: ``mac.acks_dropped`` counter (the previously silent half-duplex ACK
#: drop), which is part of the digested counters dict.  Every delivery,
#: energy figure and pre-existing counter is byte-identical to the v5
#: goldens; only the new key changed the serialization.
GOLDEN_DIGEST = "f6a136749dadd377938a50c314f7c2b945021fafceaa10e5f51211735d3f0d6e"

#: Same contract for the prototype testbed path.  Unchanged by the v6
#: re-pin: the prototype path builds no MACs.
GOLDEN_PROTOTYPE_DIGEST = (
    "bc80e69b5ff25ed8d99a7a399fd4af2a03b0df2c72ec4a2fb6f2d5241cc41cee"
)

#: Same contract for the scenario-composition axes: one non-grid scenario
#: (random topology + log-normal shadowing + mixed radios + traffic mix),
#: pinned so the generated-deployment and propagation code paths cannot
#: drift silently either.  Re-pinned with v6 (``mac.acks_dropped``).
GOLDEN_COMPOSED_DIGEST = (
    "cbc69a0e7d02edf4c04b523e2c4331321aa23c1a765df9f29b0d6901bd0977a3"
)

#: The non-default routing policies consciously diverge from the min-hop
#: goldens (they pick different routes), so each gets its own pinned
#: composed digest.  ``tx-energy`` runs the composed scenario as-is;
#: ``residual-energy`` additionally carries a battery FaultPlan so the
#: pin covers the injector composition: battery deaths → epoch
#: invalidation, battery polls → mid-epoch ``refresh_costs``.
GOLDEN_TX_ENERGY_DIGEST = (
    "6505d30d78aa3a0c65fd4118075fe8ceae5bf02c0f96204b22854360ac6ce34a"
)
GOLDEN_RESIDUAL_DIGEST = (
    "8ced0ae0c76d02e00454fa67c630dc0a04d76e4a7fdf9f3860df710dd01c8352"
)

#: Two receiver/transmitter accounting paths no paper cell takes, each
#: pinned on its own small cell: BCP shortcut learning (every high radio
#: is promiscuous, so the medium's overhear delivery runs end to end) and
#: a sensor radio with a discrete TX power ladder (per-frame power
#: selection in the transmit-energy charge).
GOLDEN_SHORTCUT_DIGEST = (
    "75f69c4e66ff57ed502ee0c1ce09a8c33242035032fc6a3e0ab4f0028b8e278a"
)
GOLDEN_TX_LADDER_DIGEST = (
    "80194e482d6b2f0121e20e19266d5b902d5d88841a8b9a5a533f7b7b5bd6b2e5"
)

#: One SH paper cell (3 senders, burst 10, 2 kb/s, 10 s), recorded while
#: the flat MAC and its generator-engine reference agreed on it.
GOLDEN_PAPER_CELL_DIGEST = (
    "23c792708bf9fa2ac6466734dbb56ec57dba6ccad04539108e95d3a7911921e8"
)

#: BCP's wake-up handshake off the happy path, which no cell above
#: reaches (none has loss or a short wake-up timeout).  Each cell pins
#: one path:
#:
#: * ``lossy`` — 85% frame loss: WAKEUP retries, failed handshakes and
#:   their exponential backoff, receiver idle timeouts;
#: * ``ack-timeout-race`` — an 11 ms wake-up timeout, close to the
#:   WAKEUP/ACK round trip, so the ACK wins some waits and the timeout
#:   others;
#: * ``timeout-storm`` — 11.5 ms: most handshakes fail, late ACKs land
#:   on later attempts, and the backoff saturates;
#: * ``full-receiver`` — 12-packet buffers under 10-packet bursts: relays
#:   with no room stay silent and the sender retries;
#: * ``crash-mid-burst`` — two senders die mid-burst (one revives), so
#:   the MAC drops the rest of the burst and the receiver times out.
GOLDEN_HANDSHAKE_DIGESTS = {
    "lossy": "0883b971e5d1b48c826f11ba661135d1040247cfe2da6237f29f98ff173b5f74",
    "ack-timeout-race": (
        "0437f3e0ce8c6427c10158e6834d3355f940adff7efc09736c242cb53ea08b10"
    ),
    "timeout-storm": (
        "59c6d190c2b26adb39226aeb075d223a0d26a8b429c75f76a72b1e0eab769f3a"
    ),
    "full-receiver": (
        "be046cf40b02351162c9c2d309b040262896f4194eb3fce99d5d082f16a938a2"
    ),
    "crash-mid-burst": (
        "2cec3185a4d02bcc302ccf06b9077e5ffd7c37da20abe0d485fab9724ad8d655"
    ),
}


def handshake_config(name):
    """The cell behind ``GOLDEN_HANDSHAKE_DIGESTS[name]``."""
    from repro.faults import FaultPlan
    from repro.models.scenario import multi_hop_config, single_hop_config

    grid = dict(rows=3, cols=3, sink=4, sim_time_s=30.0, burst_packets=10)
    if name == "lossy":
        return single_hop_config(
            **grid, n_senders=3, rate_bps=2000.0, loss_probability=0.85,
            seed=3,
        )
    if name == "ack-timeout-race":
        return multi_hop_config(
            **grid, n_senders=4, wakeup_timeout_s=0.011, seed=5
        )
    if name == "timeout-storm":
        return multi_hop_config(
            **grid, n_senders=4, wakeup_timeout_s=0.0115, seed=5
        )
    if name == "full-receiver":
        return single_hop_config(
            rows=4, cols=4, sink=0, sim_time_s=30.0, burst_packets=10,
            n_senders=6, buffer_packets=12, rate_bps=2000.0, seed=6,
        )
    assert name == "crash-mid-burst"
    # Nodes 0 and 3 are mid-burst at these instants (80-packet bursts
    # take three high-power frames).
    faults = FaultPlan(
        crashes=((10.158, 0), (10.167, 3)), recoveries=((15.0, 0),)
    )
    return single_hop_config(
        **dict(grid, burst_packets=80), n_senders=3, rate_bps=2000.0,
        seed=7, faults=faults,
    )


def residual_faults():
    """The battery plan the residual-energy pin composes with.

    0.006 J at the composed scenario's load kills two relays mid-run
    (first death at t=14 s) while the network keeps delivering — the
    interesting regime where routes must actually react."""
    from repro.faults import FaultPlan

    return FaultPlan(battery_capacity_j=0.006, battery_poll_s=2.0)


def composed_config():
    from repro.channel.propagation import PropagationSpec
    from repro.models.scenario import RadioAssignment, ScenarioConfig
    from repro.topology.registry import TopologySpec

    return ScenarioConfig(
        model="dual",
        topology=TopologySpec.of(
            # Dense relative to the 40 m radio range: shadowed links
            # survive at this scenario's seed on every tier.
            "uniform-random", n=12, width_m=70.0, height_m=70.0,
            connect_range_m=30.0,
        ),
        propagation=PropagationSpec.of("log-normal", sigma_db=2.0),
        high_radios=RadioAssignment(overrides=((0, "Cabletron"),)),
        traffic_mix=((3, "poisson"),),
        sink=0,
        n_senders=4,
        sim_time_s=30.0,
        burst_packets=10,
        seed=7,
    )


def shortcut_config():
    from repro.models.scenario import multi_hop_config

    return multi_hop_config(
        rows=4, cols=4, sink=0, n_senders=3, burst_packets=10,
        sim_time_s=30.0, shortcut_learning=True, seed=3,
    )


def tx_ladder_config():
    from repro.energy.radio_specs import MICAZ, TX_POWER_LEVELS
    from repro.models.scenario import ScenarioConfig

    return ScenarioConfig(
        rows=3, cols=3, sink=4, n_senders=2, sim_time_s=30.0,
        burst_packets=20, spacing_m=30.0,
        low_spec=MICAZ.replace(tx_power_levels=TX_POWER_LEVELS),
    )


def golden_sweep(runner=None):
    return run_sweep(
        GOLDEN_CASE, GOLDEN_SCALE, rate_bps=GOLDEN_RATE, runner=runner
    )


class TestGoldenDigest:
    def test_serial_run_matches_pinned_digest(self):
        sweep = golden_sweep(SweepRunner(jobs=1))
        assert sweep_digest(sweep) == GOLDEN_DIGEST

    def test_prototype_matches_pinned_digest(self):
        from repro.testbed.experiment import PrototypeConfig, sweep_thresholds

        results = sweep_thresholds(
            [1024.0, 2048.0],
            base_config=PrototypeConfig(n_messages=100),
            runner=SweepRunner(jobs=1),
        )
        assert results_digest(results) == GOLDEN_PROTOTYPE_DIGEST

    def test_composed_scenario_matches_pinned_digest(self):
        assert (
            results_digest([run_scenario(composed_config())])
            == GOLDEN_COMPOSED_DIGEST
        )

    def test_paper_grid_cell_matches_pinned_digest(self):
        from repro.models.scenario import single_hop_config

        config = single_hop_config(
            n_senders=3, burst_packets=10, rate_bps=2000.0, sim_time_s=10.0
        )
        assert (
            results_digest([run_scenario(config)]) == GOLDEN_PAPER_CELL_DIGEST
        )

    def test_zero_fault_plan_is_inert(self):
        # A configured-but-empty FaultPlan must be inert: no injector, no
        # extra counters, no perturbed rng draws — the pinned composed
        # digest reproduces.
        import dataclasses

        from repro.faults import FaultPlan

        plan = FaultPlan()
        assert plan.is_zero
        config = dataclasses.replace(composed_config(), faults=plan)
        assert (
            results_digest([run_scenario(config)]) == GOLDEN_COMPOSED_DIGEST
        )

    @pytest.mark.parametrize("name", sorted(GOLDEN_HANDSHAKE_DIGESTS))
    def test_handshake_paths_match_pinned_digest(self, name):
        result = run_scenario(handshake_config(name))
        assert results_digest([result]) == GOLDEN_HANDSHAKE_DIGESTS[name]

    def test_tx_energy_policy_matches_pinned_digest(self):
        # The energy policy diverges from the hops goldens on purpose;
        # its own pin keeps the Dijkstra/cost path from drifting.
        import dataclasses

        config = dataclasses.replace(
            composed_config(), routing_policy="tx-energy"
        )
        assert (
            results_digest([run_scenario(config)]) == GOLDEN_TX_ENERGY_DIGEST
        )

    def test_residual_policy_with_batteries_matches_pinned_digest(self):
        # residual-energy × battery faults: deaths invalidate epochs and
        # polls refresh live costs, all pinned byte-for-byte.
        import dataclasses

        config = dataclasses.replace(
            composed_config(),
            routing_policy="residual-energy",
            faults=residual_faults(),
        )
        assert (
            results_digest([run_scenario(config)]) == GOLDEN_RESIDUAL_DIGEST
        )

    def test_shortcut_learning_matches_pinned_digest(self):
        # Promiscuous overhearing feeds BCP's shortcut learner.
        assert (
            results_digest([run_scenario(shortcut_config())])
            == GOLDEN_SHORTCUT_DIGEST
        )

    def test_tx_power_ladder_matches_pinned_digest(self):
        # Laddered sensor radios charge per-frame selected TX power.
        assert (
            results_digest([run_scenario(tx_ladder_config())])
            == GOLDEN_TX_LADDER_DIGEST
        )

    def test_digest_is_sensitive_to_results(self):
        sweep = golden_sweep(SweepRunner(jobs=1))
        baseline = sweep_digest(sweep)
        label = next(iter(sweep.cells))
        count = next(iter(sweep.cells[label]))
        sweep.cells[label][count].results[0].delivered_bits += 1.0
        assert sweep_digest(sweep) != baseline


class TestBackendsAreByteIdentical:
    def test_process_pool_matches_serial(self):
        serial = golden_sweep(SweepRunner(jobs=1))
        process = golden_sweep(SweepRunner(jobs=2))
        assert sweep_digest(process) == sweep_digest(serial)
        assert process.cells == serial.cells

    def test_merged_shards_match_serial(self, tmp_path):
        serial = golden_sweep(SweepRunner(jobs=1))
        plan = sweep_plan(GOLDEN_CASE, GOLDEN_SCALE, rate_bps=GOLDEN_RATE)
        configs = [planned.config for planned in plan]
        keys = [config_key(config) for config in configs]
        # both shards of the plan are non-trivial
        owned0 = sum(ShardSpec(0, 2).owns(key) for key in keys)
        assert 0 < owned0 < len(keys)
        for index in range(2):
            spec = ShardSpec(index, 2)
            shard_dir = tmp_path / f"s{index}"
            SweepRunner(
                jobs=1, cache=ResultCache(shard_dir), shard=spec
            ).map(run_scenario, configs)
            write_shard_manifest(
                shard_dir, spec, [k for k in keys if spec.owns(k)]
            )
        merged = tmp_path / "merged"
        report = merge_shards(merged, [tmp_path / "s0", tmp_path / "s1"])
        assert report.complete
        cache = ResultCache(merged)
        from_shards = golden_sweep(SweepRunner(cache=cache))
        assert cache.stats.stores == 0  # everything came from the merge
        assert cache.stats.hits == len(configs)
        assert sweep_digest(from_shards) == sweep_digest(serial)
        assert sweep_digest(from_shards) == GOLDEN_DIGEST


class TestShardCliAcceptance:
    """Acceptance: --shard 0/2 + --shard 1/2 + merge-shards ≡ serial run."""

    ARGS = ("fig5", "--runs", "1", "--sim-time", "10", "--senders", "2", "3",
            "--bursts", "10")

    @staticmethod
    def parse(*argv):
        return build_parser().parse_args(list(argv))

    def test_sharded_figure_is_byte_identical_to_serial(self, tmp_path):
        from repro.cli import main

        serial_text = render_artifact(self.parse(*self.ARGS, "--no-cache"))
        for index in range(2):
            render_artifact(
                self.parse(
                    *self.ARGS,
                    "--shard", f"{index}/2",
                    "--cache-dir", str(tmp_path / f"s{index}"),
                )
            )
        merged = tmp_path / "merged"
        assert main(
            ["merge-shards", str(merged)]
            + [str(tmp_path / f"s{i}") for i in range(2)]
        ) == 0
        warm_text = render_artifact(
            self.parse(*self.ARGS, "--cache-dir", str(merged))
        )
        assert warm_text == serial_text
        # and the merged render recomputed nothing: rendering again with a
        # counting cache shows pure hits
        cache = ResultCache(merged)
        golden_sweep(SweepRunner(cache=cache))
        assert cache.stats.stores == 0

    def test_shard_runs_cover_disjoint_cells(self, tmp_path):
        seen: dict[int, set[str]] = {}
        for index in range(2):
            shard_dir = tmp_path / f"s{index}"
            render_artifact(
                self.parse(
                    *self.ARGS,
                    "--shard", f"{index}/2",
                    "--cache-dir", str(shard_dir),
                )
            )
            seen[index] = {p.stem for p in shard_dir.glob("*.json")}
        assert seen[0] and seen[1]
        assert seen[0].isdisjoint(seen[1])


class TestReplicaDeterminism:
    def test_shard_partition_of_replicas_is_stable(self):
        # the same plan laid out twice shards identically — no hidden
        # per-process state leaks into cell identity
        plan_a = sweep_plan(GOLDEN_CASE, GOLDEN_SCALE, rate_bps=GOLDEN_RATE)
        plan_b = sweep_plan(GOLDEN_CASE, GOLDEN_SCALE, rate_bps=GOLDEN_RATE)
        keys_a = [config_key(p.config) for p in plan_a]
        keys_b = [config_key(p.config) for p in plan_b]
        assert keys_a == keys_b
        assert [ShardSpec(0, 3).owns(k) for k in keys_a] == [
            ShardSpec(0, 3).owns(k) for k in keys_b
        ]

    def test_digest_stable_across_repeated_runs(self):
        first = golden_sweep(SweepRunner(jobs=1))
        second = golden_sweep(SweepRunner(jobs=1))
        assert sweep_digest(first) == sweep_digest(second)


if __name__ == "__main__":  # pragma: no cover - digest (re)pin helper
    sweep = golden_sweep()
    print("GOLDEN_DIGEST =", repr(sweep_digest(sweep)))
    from repro.testbed.experiment import PrototypeConfig, sweep_thresholds

    results = sweep_thresholds(
        [1024.0, 2048.0], base_config=PrototypeConfig(n_messages=100)
    )
    print("GOLDEN_PROTOTYPE_DIGEST =", repr(results_digest(results)))
    print(
        "GOLDEN_COMPOSED_DIGEST =",
        repr(results_digest([run_scenario(composed_config())])),
    )
    import dataclasses

    print(
        "GOLDEN_TX_ENERGY_DIGEST =",
        repr(
            results_digest(
                [
                    run_scenario(
                        dataclasses.replace(
                            composed_config(), routing_policy="tx-energy"
                        )
                    )
                ]
            )
        ),
    )
    print(
        "GOLDEN_RESIDUAL_DIGEST =",
        repr(
            results_digest(
                [
                    run_scenario(
                        dataclasses.replace(
                            composed_config(),
                            routing_policy="residual-energy",
                            faults=residual_faults(),
                        )
                    )
                ]
            )
        ),
    )
    print(
        "GOLDEN_SHORTCUT_DIGEST =",
        repr(results_digest([run_scenario(shortcut_config())])),
    )
    print(
        "GOLDEN_TX_LADDER_DIGEST =",
        repr(results_digest([run_scenario(tx_ladder_config())])),
    )
    for name in sorted(GOLDEN_HANDSHAKE_DIGESTS):
        print(
            f"GOLDEN_HANDSHAKE_DIGESTS[{name!r}] =",
            repr(results_digest([run_scenario(handshake_config(name))])),
        )
