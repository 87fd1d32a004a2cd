"""Command-line interface: regenerate any table or figure of the paper.

Examples
--------
::

    repro list                     # what can be regenerated
    repro table1                   # Table 1
    repro fig4                     # analysis figure (exact, instant)
    repro fig5                     # simulation figure (bench scale)
    repro fig5 --paper --jobs 0    # full Section 4.1 scale, all cores
    repro fig6 --senders 5 20 35 --runs 3 --sim-time 300
    repro fig5 --jobs 4            # fan cells over 4 worker processes
    repro fig5 --no-cache          # force recomputation of every cell
    repro fig11 --step 64          # prototype sweep at finer threshold step

    # multi-machine: each host computes its deterministic slice...
    repro fig5 --paper --shard 0/2 --cache-dir /tmp/s0   # host 0
    repro fig5 --paper --shard 1/2 --cache-dir /tmp/s1   # host 1
    # ...then one host assembles and renders:
    repro merge-shards merged/ /tmp/s0 /tmp/s1
    repro fig5 --paper --cache-dir merged/

    repro scenarios list                   # registered composition axes

    repro bench                            # smoke perf suite + its ceilings
    repro bench --suite full --no-write    # every ceiling, no BENCH json
    repro bench --list                     # what each suite measures

    # scenarios beyond the paper's grid: compose topology x propagation x
    # radios x traffic; cells hash into the same cache/shard machinery.
    repro run --topology uniform-random:n=24,width_m=160,height_m=160,connect_range_m=60 \
              --propagation log-normal:sigma_db=4 --senders 8 --runs 3
    repro run --topology line:n=8 --traffic poisson --sim-time 120
    repro run --high-radio-map 0=Cabletron --traffic-mix 3=audio,5=poisson

Simulation figures (fig5–fig10) and prototype figures (fig11–fig12)
execute through the sweep runner: cells fan out over ``--jobs`` worker
processes (default ``$REPRO_JOBS``, then serial) and completed cells
persist in an on-disk cache (``--cache-dir``, default
``$REPRO_CACHE_DIR`` or ``~/.cache/repro``), so regenerating a figure,
or a figure pair sharing a sweep, skips already-computed cells.
``--shard K/N`` executes only this machine's deterministic slice and
writes a shard manifest instead of rendering.  Progress (cells
completed, cache hits, ETA) streams to stderr; the artifact itself goes
to stdout or ``--output``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import typing

from repro.channel.propagation import PROPAGATION, PropagationSpec
from repro.energy.radio_specs import TABLE_1, get_spec
from repro.faults import FaultPlan
from repro.models.scenario import (
    RadioAssignment,
    ScenarioConfig,
    run_replicated,
    run_scenario,
)
from repro.net.policy import ROUTING_POLICIES, ROUTING_POLICY_NAMES
from repro.models.sweeps import SweepScale, sweep_plan
from repro.report import figures
from repro.report.scenario import render_run_report
from repro.topology.registry import TOPOLOGIES, TopologySpec, topology_node_count
from repro.traffic.registry import TRAFFIC
from repro.runner import (
    MergeError,
    ProgressPrinter,
    ResultCache,
    ShardSpec,
    SweepRunner,
    config_key,
    merge_shards,
    write_shard_manifest,
)
from repro.testbed.experiment import (
    PrototypeConfig,
    default_threshold_sweep,
    run_prototype,
)

#: Figures that accept a SweepScale.
_SIM_FIGURES = {"fig5", "fig6", "fig7", "fig8", "fig9", "fig10"}
#: Figures driven by the prototype testbed.
_PROTO_FIGURES = {"fig11", "fig12"}


def build_parser() -> argparse.ArgumentParser:
    """The artifact-mode argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce tables/figures of 'Improving Energy Conservation "
            "Using Bulk Transmission over High-Power Radios in Sensor "
            "Networks' (ICDCS 2008).  Also: repro merge-shards --help."
        ),
    )
    parser.add_argument(
        "artifact",
        help="artifact id: table1, fig1..fig12, or 'list'",
    )
    parser.add_argument(
        "--paper",
        action="store_true",
        help="run simulation figures at full paper scale (5000 s, 20 runs)",
    )
    parser.add_argument(
        "--runs", type=int, default=None, help="replicated runs per cell"
    )
    parser.add_argument(
        "--sim-time", type=float, default=None, help="simulated seconds per run"
    )
    parser.add_argument(
        "--senders",
        type=int,
        nargs="+",
        default=None,
        help="sender counts to sweep",
    )
    parser.add_argument(
        "--bursts",
        type=int,
        nargs="+",
        default=None,
        help="burst sizes (packets) to sweep",
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="base random seed"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help=(
            "worker processes for sweep cells (0 = all cores; default "
            "$REPRO_JOBS, else serial)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        type=str,
        default=None,
        help=(
            "result cache directory (default $REPRO_CACHE_DIR, else "
            "~/.cache/repro)"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache for this invocation",
    )
    parser.add_argument(
        "--shard",
        type=str,
        default=None,
        metavar="K/N",
        help=(
            "execute only shard K of N of the figure's sweep (by config "
            "hash), populate the cache and write a shard manifest instead "
            "of rendering; assemble with 'repro merge-shards'"
        ),
    )
    parser.add_argument(
        "--step",
        type=int,
        default=128,
        help="prototype threshold step in bytes (fig11/fig12)",
    )
    parser.add_argument(
        "--output",
        type=str,
        default=None,
        help="write the artifact to a file instead of stdout",
    )
    return parser


def _scale_from_args(args: argparse.Namespace) -> SweepScale:
    artifact = args.artifact.lower()
    if args.paper:
        scale = SweepScale.paper()
    elif artifact in ("fig7", "fig10"):
        # Energy-delay figures run at 0.2 kb/s: buffers need much longer
        # to cycle, and only the (cheap) dual model is swept.
        scale = SweepScale(bursts=(10, 100, 500), n_runs=1, sim_time_s=1500.0)
    else:
        scale = SweepScale()
    changes: dict[str, typing.Any] = {"seed": args.seed}
    if args.runs is not None:
        changes["n_runs"] = args.runs
    if args.sim_time is not None:
        changes["sim_time_s"] = args.sim_time
    if args.senders is not None:
        changes["senders"] = tuple(args.senders)
    if args.bursts is not None:
        changes["bursts"] = tuple(args.bursts)
    return dataclasses.replace(scale, **changes)


def _runner_from_args(
    args: argparse.Namespace, with_cache: bool = True
) -> SweepRunner:
    """Build the sweep runner the CLI flags describe.

    Flag/environment mistakes (a bad ``$REPRO_JOBS``, a cache dir that
    is a file) exit cleanly here; ValueErrors raised later, during the
    sweep itself, are internal failures and keep their tracebacks.
    """
    try:
        cache = None
        if with_cache and not args.no_cache:
            cache = ResultCache(args.cache_dir)
        return SweepRunner(
            jobs=args.jobs, cache=cache, progress=ProgressPrinter(sys.stderr)
        )
    except ValueError as error:
        raise SystemExit(f"repro: error: {error}")


def _shard_configs(
    artifact: str, args: argparse.Namespace
) -> tuple[list[typing.Any], typing.Callable, typing.Callable]:
    """The (configs, cell function, describe) a sharded artifact sweeps.

    Laid out from the same declarative specs the figures render from
    (:data:`repro.report.figures.SIM_SWEEPS`), so a shard run computes
    exactly the cells a normal run of the figure would.
    """
    if artifact in _SIM_FIGURES:
        spec = figures.SIM_SWEEPS[artifact]
        plan = sweep_plan(
            spec.case,
            _scale_from_args(args),
            rate_bps=spec.rate_bps,
            include_wifi=spec.include_wifi,
            include_sensor=spec.include_sensor,
        )
        return (
            [planned.config for planned in plan],
            run_scenario,
            lambda index, _config: plan[index].describe(spec.case),
        )
    thresholds = default_threshold_sweep(step_bytes=args.step)
    base = PrototypeConfig()
    configs = [
        dataclasses.replace(base, threshold_bytes=float(threshold))
        for threshold in thresholds
    ]
    return (
        configs,
        run_prototype,
        lambda _i, c: f"prototype threshold={c.threshold_bytes:g}B",
    )


def _render_shard(artifact: str, args: argparse.Namespace) -> str:
    """Execute one shard of an artifact's sweep; returns the summary text."""
    try:
        spec = ShardSpec.parse(args.shard)
    except ValueError as error:
        raise SystemExit(f"repro: error: {error}")
    if artifact not in _SIM_FIGURES | _PROTO_FIGURES:
        raise SystemExit(
            f"repro: error: --shard only applies to sweep figures "
            f"(fig5..fig12), not {artifact}"
        )
    if args.no_cache:
        raise SystemExit(
            "repro: error: --shard requires the result cache (its output "
            "IS the cache); drop --no-cache"
        )
    try:
        cache = ResultCache(args.cache_dir)
        runner = SweepRunner(
            jobs=args.jobs,
            cache=cache,
            progress=ProgressPrinter(sys.stderr),
            shard=spec,
        )
    except ValueError as error:
        raise SystemExit(f"repro: error: {error}")
    configs, fn, describe = _shard_configs(artifact, args)
    runner.map(fn, configs, describe=describe)
    owned_keys = [
        key for key in (config_key(c) for c in configs) if spec.owns(key)
    ]
    manifest = write_shard_manifest(
        cache.directory, spec, owned_keys, artifact=artifact
    )
    # Every owned cell the cache could not serve was computed and put
    # once; the cache's hits also count other shards' cells.
    computed = cache.stats.stores + cache.stats.write_errors
    return (
        f"{artifact} shard {spec}: {len(owned_keys)}/{len(configs)} cells "
        f"owned ({computed} computed, {len(owned_keys) - computed} served "
        f"from cache)\n"
        f"manifest: {manifest}\n"
        f"assemble with: repro merge-shards <dest> {cache.directory} "
        f"<other shard dirs...>"
    )


def render_artifact(args: argparse.Namespace) -> str:
    """Produce the requested artifact's text."""
    artifact = args.artifact.lower()
    if artifact == "list":
        lines = ["available artifacts:"]
        for name, fn in figures.REGISTRY.items():
            doc = (fn.__doc__ or "").strip().splitlines()[0]
            lines.append(f"  {name:8s} {doc}")
        return "\n".join(lines)
    if artifact not in figures.REGISTRY:
        raise SystemExit(
            f"unknown artifact {artifact!r}; try 'repro list'"
        )
    if args.shard is not None:
        return _render_shard(artifact, args)
    if artifact in _SIM_FIGURES:
        scale = _scale_from_args(args)
        fn = getattr(figures, artifact)
        return fn(scale=scale, runner=_runner_from_args(args))
    if artifact in _PROTO_FIGURES:
        thresholds = default_threshold_sweep(step_bytes=args.step)
        fn = getattr(figures, artifact)
        return fn(thresholds=thresholds, runner=_runner_from_args(args))
    return figures.REGISTRY[artifact]()


# ---------------------------------------------------------------------------
# merge-shards subcommand.
# ---------------------------------------------------------------------------


def _merge_shards_main(argv: typing.Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro merge-shards",
        description=(
            "Assemble the cache directories of N shard runs into one "
            "result set; refuses on any cache schema or package version "
            "mismatch."
        ),
    )
    parser.add_argument("dest", help="destination cache directory")
    parser.add_argument(
        "sources", nargs="+", help="shard cache directories to merge"
    )
    args = parser.parse_args(list(argv))
    try:
        report = merge_shards(args.dest, args.sources)
    except MergeError as error:
        print(f"repro: merge-shards: {error}", file=sys.stderr)
        return 1
    print(report.summary())
    return 0


# ---------------------------------------------------------------------------
# bench subcommand (the perf ceilings).
# ---------------------------------------------------------------------------


def _bench_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description=(
            "Run the declared perf suite, check its ceilings and record "
            "the run in BENCH_<rev>.json.  Each ceiling caps one case's "
            "wall time (a 10k-node composed scenario must build in under "
            "5 s; full suite) or a deterministic work counter (a 1k-node "
            "collection round builds at most 33 routing trees).  The exit "
            "status is 1 when any ceiling is over its limit or missing."
        ),
    )
    parser.add_argument(
        "--suite",
        choices=("smoke", "full"),
        default="smoke",
        help="which case set to run (smoke is the CI gate; default)",
    )
    parser.add_argument(
        "--list", action="store_true", help="print the suite's cases and exit"
    )
    parser.add_argument(
        "--output-dir",
        type=str,
        default=".",
        help="where BENCH_<rev>.json is written (default: .)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="override every case's repeat count",
    )
    parser.add_argument(
        "--no-write",
        action="store_true",
        help="measure and check the ceilings without writing BENCH_<rev>.json",
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        const="bench-profiles",
        default=None,
        metavar="DIR",
        help=(
            "after timing each case, run one extra cProfile round and "
            "dump DIR/<case>.pstats (default DIR: bench-profiles).  The "
            "profiled round is untimed, so recorded walls are unaffected"
        ),
    )
    return parser


def _bench_main(argv: typing.Sequence[str]) -> int:
    from repro.perf import bench as perf_bench
    from repro.perf.suite import bench_cases, ceilings

    args = _bench_parser().parse_args(list(argv))
    if args.list:
        for case in bench_cases(args.suite):
            print(f"{case.name:26s} {case.summary} (x{case.repeats})")
        return 0
    if args.repeats is not None and args.repeats < 1:
        raise SystemExit("repro: error: --repeats must be at least 1")

    report = perf_bench.run_suite(
        args.suite,
        repeats=args.repeats,
        log=lambda line: print(line, file=sys.stderr),
        profile_dir=args.profile,
    )
    if args.profile is not None:
        print(f"profiles: {args.profile}/<case>.pstats")
    for name, result in report.results.items():
        ops = " ".join(
            f"{key}={value:g}" for key, value in sorted(result.ops.items())
        )
        print(f"{name:26s} {result.wall_s:9.4f}s  {ops}")
    for ceiling in ceilings(report.results):
        value = report.checks.get(ceiling.name)
        measured = "missing" if value is None else f"{value:.6g}"
        print(
            f"{ceiling.name:26s} {measured:>9s} <= {ceiling.limit:<9.6g} "
            f"{ceiling.case} {ceiling.metric}"
        )

    if not args.no_write:
        path = perf_bench.write_report(report, args.output_dir)
        print(f"wrote {path}")
    failures = perf_bench.failed_gates(report)
    if failures:
        for failure in failures:
            print(f"repro: bench: FAIL {failure}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# scenarios and run subcommands (the composition surface).
# ---------------------------------------------------------------------------


def _scenarios_main(argv: typing.Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro scenarios",
        description=(
            "Inspect the registered scenario-composition axes (topologies, "
            "propagation models, traffic sources, radios, routing "
            "policies)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="print every registered implementation")
    parser.parse_args(list(argv))

    def section(title: str, rows: list[tuple[str, str, str]]) -> list[str]:
        lines = [title, "-" * len(title)]
        width = max(len(name) for name, _p, _s in rows)
        for name, params, summary in rows:
            lines.append(f"  {name:<{width}s}  {summary}")
            if params:
                lines.append(f"  {'':<{width}s}  params: {params}")
        lines.append("")
        return lines

    out: list[str] = []
    out += section(
        "topologies (--topology kind:key=value,...)",
        [
            (entry.name, ", ".join(entry.params), entry.summary)
            for entry in TOPOLOGIES.entries()
        ],
    )
    out += section(
        "propagation models (--propagation kind:key=value,...)",
        [
            (entry.name, ", ".join(entry.params), entry.summary)
            for entry in PROPAGATION.entries()
        ],
    )
    out += section(
        "traffic sources (--traffic name, --traffic-mix node=name,...)",
        [
            (entry.name, ", ".join(entry.params), entry.summary)
            for entry in TRAFFIC.entries()
        ],
    )
    out += section(
        "radios (--low-radio / --high-radio / --high-radio-map, Table 1 names)",
        [
            (
                name,
                "",
                f"{spec.kind}-power, {spec.rate_bps / 1e6:g} Mb/s, "
                f"range {spec.range_m:g} m",
            )
            for name, spec in TABLE_1.items()
        ],
    )
    out += section(
        "routing policies (--routing-policy name)",
        [
            (entry.name, ", ".join(entry.params), entry.summary)
            for entry in ROUTING_POLICIES.entries()
        ],
    )
    print("\n".join(out).rstrip())
    return 0


def _parse_pairs(text: str, what: str) -> tuple[tuple[int, str], ...]:
    """Parse ``node=name,node=name`` CLI lists."""
    pairs = []
    for chunk in text.split(","):
        node, sep, name = chunk.partition("=")
        if not sep:
            raise SystemExit(
                f"repro: error: bad {what} entry {chunk!r}; expected node=name"
            )
        try:
            pairs.append((int(node), name.strip()))
        except ValueError:
            raise SystemExit(
                f"repro: error: bad node id in {what} entry {chunk!r}"
            )
    return tuple(sorted(pairs))


def _run_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro run",
        description=(
            "Run one composed scenario cell (replicated over seeds) and "
            "print its metrics.  Axes come from the registries shown by "
            "'repro scenarios list'; cells cache exactly like figure "
            "sweeps."
        ),
    )
    parser.add_argument(
        "--topology",
        type=str,
        default=None,
        metavar="KIND[:K=V,...]",
        help="deployment shape (default: the paper's 6x6 grid)",
    )
    parser.add_argument(
        "--topology-file",
        type=str,
        default=None,
        metavar="PATH",
        help="JSON positions file (inlined into the config as from-file)",
    )
    parser.add_argument(
        "--propagation",
        type=str,
        default=None,
        metavar="KIND[:K=V,...]",
        help="channel propagation model (default: unit-disc)",
    )
    parser.add_argument(
        "--traffic", type=str, default="cbr", help="uniform traffic source"
    )
    parser.add_argument(
        "--routing",
        choices=("auto", "eager", "lazy"),
        default="auto",
        help=(
            "BFS tie-break scheme: eager (one threaded rng stream, every "
            "tree built up front) or lazy (a stream per destination, "
            "trees built on demand); auto (default) switches from eager "
            "to lazy beyond 256 nodes"
        ),
    )
    parser.add_argument(
        "--routing-policy",
        choices=ROUTING_POLICY_NAMES,
        default="hops",
        help=(
            "route metric: hops (default, min-hop BFS), tx-energy "
            "(distance-dependent transmit energy), or residual-energy "
            "(tx energy scaled by live battery residual); see 'repro "
            "scenarios list'"
        ),
    )
    parser.add_argument(
        "--traffic-mix",
        type=str,
        default=None,
        metavar="NODE=NAME,...",
        help="per-sender traffic overrides",
    )
    parser.add_argument(
        "--model",
        choices=("dual", "sensor", "wifi"),
        default="dual",
        help="evaluation model (default dual)",
    )
    parser.add_argument(
        "--low-radio", type=str, default=None, help="sensor radio (Table 1 name)"
    )
    parser.add_argument(
        "--high-radio",
        type=str,
        default=None,
        help="high-power radio every node carries (Table 1 name)",
    )
    parser.add_argument(
        "--high-radio-map",
        type=str,
        default=None,
        metavar="NODE=NAME,...",
        help="per-node high-power radio overrides (mixed fleets)",
    )
    parser.add_argument("--sink", type=int, default=None, help="sink node id")
    parser.add_argument(
        "--senders", type=int, default=None, help="number of sending nodes"
    )
    parser.add_argument(
        "--rate", type=float, default=2000.0, help="per-sender rate (b/s)"
    )
    parser.add_argument(
        "--burst", type=int, default=500, help="BCP burst size (packets)"
    )
    parser.add_argument(
        "--loss", type=float, default=0.0, help="Bernoulli frame loss probability"
    )
    parser.add_argument(
        "--multihop",
        action="store_true",
        help="give the high radio the multi-hop range advantage",
    )
    parser.add_argument(
        "--runs", type=int, default=1, help="replicated runs (seeds)"
    )
    parser.add_argument(
        "--sim-time", type=float, default=150.0, help="simulated seconds per run"
    )
    parser.add_argument(
        "--faults",
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "JSON fault schedule (FaultPlan keys: crashes, recoveries, "
            "links_down, links_up, crash_rate_per_node_s, mean_downtime_s, "
            "battery_capacity_j, battery_overrides, battery_poll_s, "
            "protect_sink); the run reports faults.* lifetime counters"
        ),
    )
    parser.add_argument("--seed", type=int, default=1, help="base random seed")
    parser.add_argument(
        "--jobs", type=int, default=None, help="worker processes (0 = all cores)"
    )
    parser.add_argument(
        "--cache-dir", type=str, default=None, help="result cache directory"
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    parser.add_argument(
        "--output", type=str, default=None, help="write the report to a file"
    )
    return parser


def _run_config(args: argparse.Namespace) -> ScenarioConfig:
    """Translate ``repro run`` flags into a :class:`ScenarioConfig`."""
    try:
        topology = None
        if args.topology_file is not None:
            if args.topology is not None:
                raise ValueError("--topology and --topology-file are exclusive")
            topology = TopologySpec.from_file(args.topology_file)
        elif args.topology is not None:
            topology = TopologySpec.parse(args.topology)
        propagation = (
            PropagationSpec.parse(args.propagation)
            if args.propagation is not None
            else None
        )
        n_nodes = 36 if topology is None else topology_node_count(topology)
        # The paper's center sink (node 14) only means something on the
        # default grid; composed topologies default to node 0.
        sink = args.sink
        if sink is None:
            sink = 14 if topology is None else 0
        n_senders = args.senders
        if n_senders is None:
            n_senders = min(10, n_nodes - 1)
        high_radios = None
        if args.high_radio_map is not None:
            high_radios = RadioAssignment.parse(
                args.high_radio_map, default=args.high_radio
            )
        changes: dict[str, typing.Any] = dict(
            model=args.model,
            topology=topology,
            propagation=propagation,
            sink=sink,
            n_senders=n_senders,
            rate_bps=args.rate,
            burst_packets=args.burst,
            loss_probability=args.loss,
            multihop=args.multihop,
            sim_time_s=args.sim_time,
            seed=args.seed,
            traffic=args.traffic,
            high_radios=high_radios,
            routing=args.routing,
            routing_policy=args.routing_policy,
        )
        if args.faults is not None:
            with open(args.faults) as handle:
                changes["faults"] = FaultPlan.from_dict(json.load(handle))
        if args.traffic_mix is not None:
            changes["traffic_mix"] = _parse_pairs(args.traffic_mix, "--traffic-mix")
        if args.low_radio is not None:
            changes["low_spec"] = get_spec(args.low_radio)
        if args.high_radio is not None and high_radios is None:
            changes["high_spec"] = get_spec(args.high_radio)
        return ScenarioConfig(**changes)
    except (ValueError, KeyError, OSError) as error:
        message = error.args[0] if error.args else error
        raise SystemExit(f"repro: error: {message}")


def _run_main(argv: typing.Sequence[str]) -> int:
    args = _run_parser().parse_args(list(argv))
    if args.runs < 1:
        raise SystemExit("repro: error: --runs must be at least 1")
    config = _run_config(args)
    runner = _runner_from_args(args)
    try:
        results, summary = run_replicated(
            config, n_runs=args.runs, runner=runner
        )
    except ValueError as error:
        # e.g. a partitioned deployment: surface the build-time diagnosis
        # without a traceback.
        raise SystemExit(f"repro: error: {error}")
    text = render_run_report(config, results, summary)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote run report to {args.output}")
    else:
        print(text)
    return 0


def main(argv: typing.Sequence[str] | None = None) -> int:
    """CLI entry point: artifacts, ``run``, ``bench``, ``scenarios`` or
    ``merge-shards``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "run":
        return _run_main(argv[1:])
    if argv and argv[0] == "bench":
        return _bench_main(argv[1:])
    if argv and argv[0] == "scenarios":
        return _scenarios_main(argv[1:])
    if argv and argv[0] == "merge-shards":
        return _merge_shards_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    text = render_artifact(args)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.artifact} to {args.output}")
    else:
        print(text)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
