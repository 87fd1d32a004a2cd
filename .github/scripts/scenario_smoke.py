"""CI smoke: one cell of every topology × propagation combination,
plus one cell per registered routing policy.

Drives the real ``repro run`` CLI (not the library directly) so the whole
surface — spec parsing, config validation, the cached sweep runner, the
report renderer — is exercised per combination.  Runs everything twice:
the second pass must be answered entirely from the result cache, proving
composed cells hash and cache like paper cells.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

from repro.channel.propagation import PROPAGATION
from repro.cli.main import main
from repro.net.policy import ROUTING_POLICIES
from repro.runner import ResultCache
from repro.topology.registry import TOPOLOGIES

#: Small, connected parameterizations per registered topology.  Grid and
#: line spacing stays below the 40 m nominal range so log-normal runs
#: keep their links (exact-range links are muted by any negative gain).
TOPOLOGY_ARGS = {
    "grid": "grid:rows=3,cols=3,spacing_m=30",
    "line": "line:n=5,spacing_m=30",
    "uniform-random": (
        "uniform-random:n=9,width_m=80,height_m=80,connect_range_m=40"
    ),
    "clustered": (
        "clustered:n=9,width_m=80,height_m=80,clusters=2,sigma_m=10,"
        "connect_range_m=40"
    ),
    # from-file is exercised via --topology-file (see below).
}

PROPAGATION_ARGS = {
    "unit-disc": "unit-disc",
    "log-normal": "log-normal:sigma_db=2",
    "distance-prr": "distance-prr:exponent=6",
}

#: One cell per routing policy on a dense random deployment (short hops
#: give the energy policies something to actually choose between).
ROUTING_POLICY_ARGS = {
    policy: ["--routing-policy", policy]
    for policy in ("hops", "tx-energy", "residual-energy")
}


def run_cell(extra_args: list[str], expect_cached: bool = False) -> None:
    argv = [
        "run",
        *extra_args,
        "--senders",
        "3",
        "--burst",
        "10",
        "--sim-time",
        "10",
        "--runs",
        "1",
    ]
    print("repro", " ".join(argv), flush=True)
    progress = io.StringIO()
    with contextlib.redirect_stderr(progress):
        rc = main(argv)
    if rc != 0:
        sys.exit(f"repro run failed ({rc}) for: {argv}")
    if expect_cached and "(1/1 cached)" not in progress.getvalue():
        sys.exit(
            f"expected a pure cache hit for {argv}; runner reported:\n"
            f"{progress.getvalue()}"
        )


def main_smoke() -> None:
    registered = set(TOPOLOGIES.names())
    covered = set(TOPOLOGY_ARGS) | {"from-file"}
    if registered != covered:
        sys.exit(
            f"smoke matrix out of date: registered {sorted(registered)} "
            f"vs covered {sorted(covered)}"
        )
    if set(PROPAGATION_ARGS) != set(PROPAGATION.names()):
        sys.exit(
            "smoke matrix out of date: propagation models "
            f"{PROPAGATION.names()} vs covered {sorted(PROPAGATION_ARGS)}"
        )
    if set(ROUTING_POLICY_ARGS) != set(ROUTING_POLICIES.names()):
        sys.exit(
            "smoke matrix out of date: routing policies "
            f"{ROUTING_POLICIES.names()} vs covered "
            f"{sorted(ROUTING_POLICY_ARGS)}"
        )

    with tempfile.NamedTemporaryFile(
        "w", suffix=".json", delete=False
    ) as handle:
        json.dump([[0, 0], [25, 0], [50, 0], [25, 25], [50, 25]], handle)
        layout_file = handle.name

    matrix: list[list[str]] = []
    for targ in TOPOLOGY_ARGS.values():
        for parg in PROPAGATION_ARGS.values():
            matrix.append(["--topology", targ, "--propagation", parg])
    for parg in PROPAGATION_ARGS.values():
        matrix.append(["--topology-file", layout_file, "--propagation", parg])
    for policy_args in ROUTING_POLICY_ARGS.values():
        matrix.append(
            ["--topology", TOPOLOGY_ARGS["uniform-random"], *policy_args]
        )

    for cell_args in matrix:
        run_cell(cell_args)

    cache = ResultCache(os.environ.get("REPRO_CACHE_DIR"))
    entries = len(cache)
    print(f"\nfirst pass: {len(matrix)} cells, cache now holds {entries}")
    if entries < len(matrix):
        sys.exit(f"expected >= {len(matrix)} cached cells, found {entries}")

    # Second pass over the SAME full matrix: every cell — including the
    # stochastic propagation models and the from-file layout — must be a
    # pure cache hit.
    for cell_args in matrix:
        run_cell(cell_args, expect_cached=True)
    print(f"second pass: all {len(matrix)} cells served from the cache")


if __name__ == "__main__":
    main_smoke()
