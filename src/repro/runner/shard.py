"""Deterministic cross-machine sharding of sweep plans.

The result cache already gives every cell a globally-unique identity —
the sha256 of its canonical config (:func:`~repro.runner.hashing.config_key`)
— so splitting a sweep across N machines needs no coordinator: each
machine derives the *same* key for the *same* cell and executes only the
keys that land in its shard.  The partition is a pure function of
``(key, shard_count)``:

    ``shard_index(key, n) = int(key[:16], 16) % n``

which is disjoint and exhaustive by construction, uniform because sha256
is, and stable across processes, machines and Python versions because
the key itself is.

:class:`~repro.runner.executor.SweepRunner` takes a :class:`ShardSpec`
and executes only the pending cells the spec :meth:`~ShardSpec.owns`;
the rest stay unexecuted, so a shard run requires a result cache (its
product is cache entries plus a manifest, not a result list).

Workflow (see the README's multi-machine section)::

    host0$ repro fig5 --paper --shard 0/2 --cache-dir /tmp/shard0
    host1$ repro fig5 --paper --shard 1/2 --cache-dir /tmp/shard1
    # rsync both cache dirs to one host, then:
    $ repro merge-shards merged/ /tmp/shard0 /tmp/shard1
    $ repro fig5 --paper --cache-dir merged/     # served 100% from cache

Each shard run writes a **manifest** (``shard-<K>of<N>.manifest``) next
to its cache entries, recording the cache schema, the package version and
the cell keys the shard owns.  :func:`merge_shards` assembles manifests
from several directories into one cache, refusing on any schema/version
mismatch — merging results produced by different simulator versions would
silently mix incompatible physics.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import re
import typing

from repro.runner.hashing import CACHE_SCHEMA_VERSION

#: File-name suffix of shard manifests.  Deliberately *not* ``.json``:
#: cache entries are ``<sha256>.json`` and everything that globs entries
#: (``len(cache)``, merging) must never confuse a manifest for one.
MANIFEST_SUFFIX = ".manifest"

#: The ``kind`` tag inside a manifest file.
MANIFEST_KIND = "repro-shard-manifest"

#: A config-hash key as :func:`~repro.runner.hashing.config_key` writes
#: it: a lowercase sha256 hexdigest, hence also a safe file-name stem.
_KEY_PATTERN = re.compile(r"[0-9a-f]{64}")


class MergeError(RuntimeError):
    """A shard merge refused: incompatible or missing manifests."""


def shard_index(key: str, shard_count: int) -> int:
    """Which shard of ``shard_count`` owns the cell with hash ``key``.

    Pure, uniform, and stable: derived from the leading 64 bits of the
    cell's sha256 config key.
    """
    if shard_count < 1:
        raise ValueError(f"shard count must be >= 1, got {shard_count}")
    try:
        prefix = int(key[:16], 16)
    except ValueError:
        raise ValueError(f"not a config-hash key: {key!r}") from None
    return prefix % shard_count


@dataclasses.dataclass(frozen=True)
class ShardSpec:
    """One machine's slice of a sweep: ``shard index of count``."""

    index: int
    count: int

    def __post_init__(self) -> None:
        for value in (self.index, self.count):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(
                    f"shard index and count must be integers, got {value!r}"
                )
        if self.count < 1:
            raise ValueError(f"shard count must be >= 1, got {self.count}")
        if not 0 <= self.index < self.count:
            raise ValueError(
                f"shard index must be in [0, {self.count}), got {self.index}"
            )

    @classmethod
    def parse(cls, text: str) -> "ShardSpec":
        """Parse the CLI form ``"K/N"`` (e.g. ``--shard 0/2``)."""
        parts = text.strip().split("/")
        if len(parts) != 2:
            raise ValueError(
                f"bad shard spec {text!r}; expected K/N, e.g. 0/2"
            )
        try:
            index, count = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(
                f"bad shard spec {text!r}; expected integers K/N"
            ) from None
        return cls(index, count)

    def owns(self, key: str) -> bool:
        """Whether this shard executes the cell with config-hash ``key``."""
        return shard_index(key, self.count) == self.index

    def __str__(self) -> str:
        return f"{self.index}/{self.count}"


def manifest_path(
    directory: str | os.PathLike, spec: ShardSpec
) -> pathlib.Path:
    """Where the manifest of ``spec`` lives inside a cache directory."""
    return (
        pathlib.Path(directory)
        / f"shard-{spec.index}of{spec.count}{MANIFEST_SUFFIX}"
    )


def write_shard_manifest(
    directory: str | os.PathLike,
    spec: ShardSpec,
    keys: typing.Sequence[str],
    artifact: str | None = None,
) -> pathlib.Path:
    """Record which cells a shard run owns, for :func:`merge_shards`.

    ``keys`` are the config-hash keys of the cells this shard owns
    (whether computed this run or already cached).  Atomic like cache
    writes; re-running a shard simply rewrites its manifest.
    """
    import repro

    path = manifest_path(directory, spec)
    payload = {
        "kind": MANIFEST_KIND,
        "schema": CACHE_SCHEMA_VERSION,
        "version": repro.__version__,
        "shard": {"index": spec.index, "count": spec.count},
        "artifact": artifact,
        "cells": sorted(keys),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f"{MANIFEST_SUFFIX}.tmp{os.getpid()}")
    tmp.write_text(json.dumps(payload, sort_keys=True, indent=1))
    os.replace(tmp, path)
    return path


def read_shard_manifest(path: str | os.PathLike) -> dict[str, typing.Any]:
    """Load and structurally validate one manifest file.

    Manifests arrive from other hosts' directories, so nothing in one is
    trusted: the shard must be a valid :class:`ShardSpec` and every cell
    a config-hash key, which :func:`merge_shards` joins into file names.
    """
    path = pathlib.Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as error:
        raise MergeError(f"unreadable shard manifest {path}: {error}")
    if not isinstance(payload, dict) or payload.get("kind") != MANIFEST_KIND:
        raise MergeError(f"{path} is not a shard manifest")
    for field in ("schema", "version", "shard", "cells"):
        if field not in payload:
            raise MergeError(f"shard manifest {path} lacks {field!r}")
    shard = payload["shard"]
    try:
        ShardSpec(shard["index"], shard["count"])
    except (TypeError, KeyError, ValueError) as error:
        raise MergeError(
            f"shard manifest {path} has a bad shard {shard!r}: {error}"
        ) from None
    cells = payload["cells"]
    if not isinstance(cells, list):
        raise MergeError(f"shard manifest {path}: cells is not a list")
    for key in cells:
        if not isinstance(key, str) or not _KEY_PATTERN.fullmatch(key):
            raise MergeError(
                f"shard manifest {path} lists {key!r}, not a config-hash key"
            )
    return payload


@dataclasses.dataclass
class MergeReport:
    """What :func:`merge_shards` did, for CLI reporting and tests."""

    manifests: int = 0
    shard_count: int = 0
    shards_seen: set[int] = dataclasses.field(default_factory=set)
    cells_listed: int = 0
    copied: int = 0
    already_present: int = 0
    missing: int = 0

    @property
    def missing_shards(self) -> list[int]:
        """Shard indices no manifest covered (partial merges are legal)."""
        return [
            index
            for index in range(self.shard_count)
            if index not in self.shards_seen
        ]

    @property
    def complete(self) -> bool:
        """Whether every shard contributed and every listed cell landed."""
        return not self.missing_shards and self.missing == 0

    def summary(self) -> str:
        """One-paragraph human rendering."""
        lines = [
            f"merged {self.manifests} shard manifest(s) covering "
            f"{len(self.shards_seen)}/{self.shard_count} shard(s): "
            f"{self.copied} cell(s) copied, "
            f"{self.already_present} already present, "
            f"{self.missing} missing from their source dir(s)"
        ]
        if self.missing_shards:
            missing = ", ".join(str(i) for i in self.missing_shards)
            lines.append(f"warning: no manifest for shard(s) {missing}")
        return "\n".join(lines)


def _copy_entry(source: pathlib.Path, dest: pathlib.Path) -> None:
    tmp = dest.with_suffix(f".tmp{os.getpid()}")
    tmp.write_bytes(source.read_bytes())
    os.replace(tmp, dest)


def merge_shards(
    dest: str | os.PathLike, sources: typing.Sequence[str | os.PathLike]
) -> MergeReport:
    """Assemble shard cache directories into one result set.

    Every source directory must carry at least one shard manifest; all
    manifests (across all sources) must agree on the cache schema, the
    package version, and the shard count — any mismatch refuses the whole
    merge with :class:`MergeError`, because a half-merged cache of mixed
    simulator versions is worse than no cache.  Missing cell files (e.g.
    deleted after the manifest was written) are tolerated and counted;
    re-running the shard regenerates them.

    Merging into a directory that already has entries (including one of
    the sources) is fine — entries are keyed by content hash, so a
    duplicate key is byte-equivalent and skipped.
    """
    import repro

    dest_dir = pathlib.Path(dest)
    if dest_dir.exists() and not dest_dir.is_dir():
        raise MergeError(f"merge destination {dest_dir} is not a directory")
    report = MergeReport()
    plans: list[tuple[pathlib.Path, list[str]]] = []
    for source in sources:
        source_dir = pathlib.Path(source)
        manifests = sorted(source_dir.glob(f"*{MANIFEST_SUFFIX}"))
        if not manifests:
            raise MergeError(
                f"{source_dir} has no shard manifest; was it produced by "
                "a --shard run?"
            )
        for path in manifests:
            payload = read_shard_manifest(path)
            if payload["schema"] != CACHE_SCHEMA_VERSION:
                raise MergeError(
                    f"{path}: cache schema {payload['schema']!r} does not "
                    f"match this build's {CACHE_SCHEMA_VERSION!r}"
                )
            if payload["version"] != repro.__version__:
                raise MergeError(
                    f"{path}: produced by repro {payload['version']}, this "
                    f"build is {repro.__version__}; rerun the shard"
                )
            shard = payload["shard"]
            if report.manifests and shard["count"] != report.shard_count:
                raise MergeError(
                    f"{path}: shard count {shard['count']} conflicts with "
                    f"earlier manifests' {report.shard_count}"
                )
            report.manifests += 1
            report.shard_count = shard["count"]
            report.shards_seen.add(shard["index"])
            plans.append((source_dir, list(payload["cells"])))
    dest_dir.mkdir(parents=True, exist_ok=True)
    for source_dir, keys in plans:
        for key in keys:
            report.cells_listed += 1
            entry = source_dir / f"{key}.json"
            target = dest_dir / f"{key}.json"
            if target.exists():
                report.already_present += 1
                continue
            if not entry.exists():
                report.missing += 1
                continue
            _copy_entry(entry, target)
            report.copied += 1
    return report
