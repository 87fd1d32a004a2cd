"""On-disk cache of experiment results, keyed by config hash.

One cache entry is one JSON file ``<sha256>.json`` under the cache
directory, holding the schema version, the canonical config JSON (for
debuggability — ``jq .config`` shows exactly what produced an entry), a
``result_type`` tag, and the serialized result.  Two result types are
registered out of the box: simulation
:class:`~repro.stats.metrics.RunResult` records and (via
:mod:`repro.testbed.experiment`) prototype ``PrototypeResult``
measurements; further types register through
:func:`register_result_type`.

Robustness rules:

* **Writes are atomic** (temp file + ``os.replace``), so a killed run
  never leaves a half-written entry behind.
* **Reads never trust the file**: any unreadable, truncated, schema-stale
  or otherwise malformed entry is treated as a miss, deleted, and
  recomputed — a corrupted cache can cost time, never correctness.
* **GC never races writers**: :meth:`ResultCache.gc` takes a cache-dir
  lockfile (two GCs cannot interleave) and skips *in-flight* entries —
  files younger than a grace window that a live sweep may have just
  written.  Sweeps themselves stay lock-free: their atomic writes plus
  the grace window make concurrent GC safe, and a cell GC'd immediately
  after being written costs a recompute, never a wrong result.

The default location is ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import time
import typing
import warnings

from repro.runner.hashing import CACHE_SCHEMA_VERSION, canonical_json, config_key
from repro.stats.metrics import RunResult

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Name of the GC lockfile inside a cache directory.
GC_LOCK_NAME = "gc.lock"

#: Entries younger than this are treated as in-flight during GC: a
#: concurrent sweep may have just written them, so eviction policies
#: (LRU, corruption) leave them alone.
GC_GRACE_S = 60.0


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR``, or ``~/.cache/repro`` when unset."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro"


# ---------------------------------------------------------------------------
# Result-type registry: what the cache knows how to (de)serialize.
# ---------------------------------------------------------------------------


def result_to_dict(result: RunResult) -> dict[str, typing.Any]:
    """Serialize a :class:`RunResult` to plain JSON-encodable data."""
    return dataclasses.asdict(result)


def result_from_dict(data: dict[str, typing.Any]) -> RunResult:
    """Rebuild a :class:`RunResult`; raises on missing/unknown fields."""
    field_names = {field.name for field in dataclasses.fields(RunResult)}
    unknown = set(data) - field_names
    if unknown:
        raise ValueError(f"unknown RunResult fields: {sorted(unknown)}")
    return RunResult(**data)


@dataclasses.dataclass(frozen=True)
class ResultTypeSpec:
    """How the cache serializes one result class."""

    name: str
    cls: type
    to_dict: typing.Callable[[typing.Any], dict[str, typing.Any]]
    from_dict: typing.Callable[[dict[str, typing.Any]], typing.Any]


_RESULT_TYPES: dict[str, ResultTypeSpec] = {}


def register_result_type(
    cls: type,
    to_dict: typing.Callable[[typing.Any], dict[str, typing.Any]],
    from_dict: typing.Callable[[dict[str, typing.Any]], typing.Any],
) -> None:
    """Teach the cache to store instances of ``cls``.

    Registration is idempotent (module reloads re-register the same
    type).  The class name is the on-disk tag, so renaming a result class
    invalidates its entries — as it should, the payload schema changed.
    """
    _RESULT_TYPES[cls.__name__] = ResultTypeSpec(
        cls.__name__, cls, to_dict, from_dict
    )


def result_type_for(result: typing.Any) -> ResultTypeSpec:
    """The registered spec serializing ``result``, or ``TypeError``."""
    spec = _RESULT_TYPES.get(type(result).__name__)
    if spec is None or not isinstance(result, spec.cls):
        raise TypeError(
            f"no registered result type for {type(result).__name__!r}; "
            "register_result_type() it before caching"
        )
    return spec


register_result_type(RunResult, result_to_dict, result_from_dict)


def results_digest(results: typing.Sequence[typing.Any]) -> str:
    """A stable sha256 over a sequence of registered results.

    The golden-trace determinism tests pin this digest in-repo: identical
    across execution modes, processes, platforms and Python versions
    because it goes through the same canonical serialization the cache
    stores (sorted keys, ``repr``-round-tripped floats).
    """
    import hashlib

    payload = [
        {"type": result_type_for(r).name, "result": result_type_for(r).to_dict(r)}
        for r in results
    ]
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# GC locking and reports.
# ---------------------------------------------------------------------------


class CacheLockedError(RuntimeError):
    """Another GC holds the cache-dir lock; retry later."""


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (signal-0 probe).

    ``PermissionError`` means the pid exists but belongs to another
    user — alive.  Any other failure errs on the side of alive: a lock
    is only broken on positive evidence of death (or old age).
    """
    if pid <= 0:
        return True
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True
    return True


class CacheDirLock:
    """An exclusive advisory lock on a cache directory (``gc.lock``).

    Created with ``O_CREAT | O_EXCL`` so exactly one holder wins; the
    file records pid and timestamp for post-mortems.  A lock is presumed
    orphaned — and broken — when it is older than ``stale_after_s``, or
    immediately when its recorded holder pid no longer names a live
    process (a GC crash would otherwise block every future GC for the
    full staleness window; a long-dead holder for ever, on filesystems
    whose clock skews).  A lock whose pid cannot be read (mid-write, or
    hand-created) falls back to the age policy alone.  Used by GC only —
    result writes are atomic and do not lock.
    """

    def __init__(
        self, directory: str | os.PathLike, stale_after_s: float = 900.0
    ):
        self.path = pathlib.Path(directory) / GC_LOCK_NAME
        self.stale_after_s = stale_after_s
        self._held = False

    def acquire(self) -> None:
        """Take the lock or raise :class:`CacheLockedError`."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        for attempt in range(2):
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                if attempt == 0 and self._is_stale():
                    # Orphaned by a killed GC; break it and retry once.
                    try:
                        self.path.unlink()
                    except OSError:
                        pass
                    continue
                raise CacheLockedError(
                    f"cache GC already running (lock {self.path}); if no "
                    "GC is alive, delete the lockfile"
                ) from None
            with os.fdopen(fd, "w") as handle:
                json.dump({"pid": os.getpid(), "time": time.time()}, handle)
            self._held = True
            return

    def release(self) -> None:
        """Drop the lock (idempotent)."""
        if self._held:
            self._held = False
            try:
                self.path.unlink()
            except OSError:
                pass

    def _is_stale(self) -> bool:
        try:
            age = time.time() - self.path.stat().st_mtime
        except OSError:
            # Vanished between exists-check and stat: holder released it.
            return False
        if age > self.stale_after_s:
            return True
        pid = self._holder_pid()
        return pid is not None and not _pid_alive(pid)

    def _holder_pid(self) -> int | None:
        """The lock's recorded holder pid, or None when unreadable.

        Unreadable covers the holder-just-created race (the file exists
        before its JSON is written) — those locks are only ever broken by
        age.
        """
        try:
            return int(json.loads(self.path.read_text())["pid"])
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def __enter__(self) -> "CacheDirLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: typing.Any) -> None:
        self.release()


@dataclasses.dataclass
class GcReport:
    """What one :meth:`ResultCache.gc` pass did."""

    scanned: int = 0
    bytes_scanned: int = 0
    evicted_corrupt: int = 0
    evicted_expired: int = 0
    evicted_lru: int = 0
    bytes_freed: int = 0
    skipped_inflight: int = 0
    tmp_removed: int = 0

    @property
    def evicted(self) -> int:
        """Entries removed, over all policies."""
        return self.evicted_corrupt + self.evicted_expired + self.evicted_lru

    @property
    def bytes_after(self) -> int:
        """Entry bytes remaining after the pass."""
        return self.bytes_scanned - self.bytes_freed

    def summary(self) -> str:
        """One-line human rendering for the CLI."""
        return (
            f"scanned {self.scanned} entries ({self.bytes_scanned} B): "
            f"evicted {self.evicted_corrupt} corrupt, "
            f"{self.evicted_expired} expired, {self.evicted_lru} over "
            f"budget ({self.bytes_freed} B freed, {self.bytes_after} B "
            f"kept, {self.skipped_inflight} in-flight skipped, "
            f"{self.tmp_removed} tmp files removed)"
        )


@dataclasses.dataclass
class CacheDiskStats:
    """A point-in-time inventory of a cache directory."""

    directory: str
    entries: int = 0
    total_bytes: int = 0
    by_type: dict[str, int] = dataclasses.field(default_factory=dict)
    corrupt: int = 0
    manifests: int = 0
    oldest_age_s: float | None = None
    newest_age_s: float | None = None
    locked: bool = False

    def summary(self) -> str:
        """Multi-line human rendering for ``repro cache stats``."""
        lines = [
            f"cache {self.directory}: {self.entries} entries, "
            f"{self.total_bytes} B"
        ]
        for name in sorted(self.by_type):
            lines.append(f"  {name}: {self.by_type[name]}")
        if self.corrupt:
            lines.append(f"  corrupt/stale: {self.corrupt}")
        if self.manifests:
            lines.append(f"  shard manifests: {self.manifests}")
        if self.oldest_age_s is not None and self.newest_age_s is not None:
            lines.append(
                f"  entry age: {self.newest_age_s:.0f}s newest, "
                f"{self.oldest_age_s:.0f}s oldest"
            )
        if self.locked:
            lines.append("  GC lock is held")
        return "\n".join(lines)


@dataclasses.dataclass
class CacheStats:
    """Counters of one cache's activity over its lifetime."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evicted_corrupt: int = 0
    write_errors: int = 0


class ResultCache:
    """Persistent config-hash → result store.

    Parameters
    ----------
    directory:
        Where entries live; created on first store.  Defaults to
        :func:`default_cache_dir`.
    """

    def __init__(self, directory: str | os.PathLike | None = None):
        self.directory = pathlib.Path(
            directory if directory is not None else default_cache_dir()
        )
        if self.directory.exists() and not self.directory.is_dir():
            raise ValueError(
                f"cache directory {self.directory} exists and is not a "
                "directory"
            )
        self.stats = CacheStats()
        self._sweep_stale_tmp_files()

    def _sweep_stale_tmp_files(self, max_age_s: float = 3600.0) -> int:
        """Remove temp files orphaned by killed writers.

        Only files older than ``max_age_s`` go, so a concurrent run's
        in-flight write is never pulled out from under it.
        """
        if not self.directory.is_dir():
            return 0
        cutoff = time.time() - max_age_s
        removed = 0
        for tmp in self.directory.glob("*.tmp*"):
            try:
                if tmp.stat().st_mtime < cutoff:
                    tmp.unlink()
                    removed += 1
            except OSError:
                pass
        return removed

    def path_for(self, config: typing.Any) -> pathlib.Path:
        """The entry file a config maps to (whether or not it exists)."""
        return self.directory / f"{config_key(config)}.json"

    def get(self, config: typing.Any) -> typing.Any | None:
        """The cached result for ``config``, or ``None`` on a miss.

        Malformed entries are evicted and reported as misses.  Entries of
        a result type this process has not registered (its module is not
        imported) are misses too, but stay on disk — they are valid data
        to some other consumer.
        """
        path = self.path_for(config)
        try:
            raw = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            return None
        try:
            # UnicodeDecodeError is a ValueError, so binary garbage takes
            # the same eviction path as malformed JSON.
            entry = json.loads(raw.decode())
            if entry["schema"] != CACHE_SCHEMA_VERSION:
                raise ValueError(f"stale cache schema {entry['schema']!r}")
            type_name = entry["result_type"]
            spec = _RESULT_TYPES.get(type_name)
            if spec is None:
                self.stats.misses += 1
                return None
            result = spec.from_dict(entry["result"])
        except (ValueError, KeyError, TypeError):
            self._evict(path)
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def put(self, config: typing.Any, result: typing.Any) -> pathlib.Path:
        """Store ``result`` under ``config``'s key, atomically.

        ``result`` must be of a registered result type.  Write failures
        (disk full, permissions) degrade to a warning — an unusable cache
        must never abort a sweep that is mid-flight with hours of
        completed cells in hand.
        """
        spec = result_type_for(result)
        path = self.path_for(config)
        entry = {
            "schema": CACHE_SCHEMA_VERSION,
            "config": json.loads(canonical_json(config)),
            "result_type": spec.name,
            "result": spec.to_dict(result),
        }
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".tmp{os.getpid()}")
            tmp.write_text(json.dumps(entry, sort_keys=True, indent=1))
            os.replace(tmp, path)
        except OSError as error:
            self.stats.write_errors += 1
            if self.stats.write_errors == 1:
                warnings.warn(
                    f"result cache write to {path} failed ({error}); "
                    "continuing without caching",
                    stacklevel=2,
                )
            return path
        self.stats.stores += 1
        return path

    def _evict(self, path: pathlib.Path) -> None:
        self._remove(path)
        self.stats.evicted_corrupt += 1

    @staticmethod
    def _remove(path: pathlib.Path) -> bool:
        try:
            path.unlink()
        except OSError:
            return False
        return True

    def _entry_paths(self) -> list[pathlib.Path]:
        """All entry files, sorted for deterministic scans."""
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob("*.json"))

    # -- garbage collection -------------------------------------------------

    def gc(
        self,
        max_bytes: int | None = None,
        max_age_s: float | None = None,
        grace_s: float = GC_GRACE_S,
        now: float | None = None,
    ) -> GcReport:
        """Evict entries: corrupted always, then by age, then LRU to size.

        Policies, in order:

        1. structurally invalid entries (unparseable JSON, stale schema)
           are removed;
        2. ``max_age_s``: entries whose mtime is older are removed;
        3. ``max_bytes``: oldest-mtime entries are removed until the
           surviving total fits (LRU — a cache hit rewrites nothing, but
           re-running a sweep re-``put``s its cells, refreshing mtimes).

        Entries younger than ``grace_s`` are *in-flight*: a concurrent
        sweep may have just written them, so no policy touches them
        (counted in the report instead).  The whole pass holds the
        cache-dir lockfile; a second GC gets :class:`CacheLockedError`.
        Entries vanishing mid-scan (a concurrent writer replacing them)
        are tolerated.  Shard manifests are not entries and are never
        collected.
        """
        report = GcReport()
        if not self.directory.is_dir():
            return report
        now = time.time() if now is None else now
        with CacheDirLock(self.directory):
            report.tmp_removed = self._sweep_stale_tmp_files()
            survivors: list[tuple[float, int, pathlib.Path]] = []
            for path in self._entry_paths():
                try:
                    stat = path.stat()
                except OSError:
                    continue  # vanished mid-scan
                report.scanned += 1
                report.bytes_scanned += stat.st_size
                age = now - stat.st_mtime
                if age < grace_s:
                    report.skipped_inflight += 1
                    continue
                try:
                    entry = json.loads(path.read_bytes().decode())
                    valid = (
                        isinstance(entry, dict)
                        and entry.get("schema") == CACHE_SCHEMA_VERSION
                        and "result" in entry
                        and "result_type" in entry
                    )
                except (OSError, ValueError):
                    valid = False
                if not valid:
                    if self._remove(path):
                        report.evicted_corrupt += 1
                        report.bytes_freed += stat.st_size
                    continue
                if max_age_s is not None and age > max_age_s:
                    if self._remove(path):
                        report.evicted_expired += 1
                        report.bytes_freed += stat.st_size
                    continue
                survivors.append((stat.st_mtime, stat.st_size, path))
            if max_bytes is not None:
                total = report.bytes_after
                for _mtime, size, path in sorted(survivors):
                    if total <= max_bytes:
                        break
                    if self._remove(path):
                        report.evicted_lru += 1
                        report.bytes_freed += size
                        total -= size
        return report

    def disk_stats(self, now: float | None = None) -> CacheDiskStats:
        """Inventory the cache directory (``repro cache stats``)."""
        stats = CacheDiskStats(directory=str(self.directory))
        if not self.directory.is_dir():
            return stats
        now = time.time() if now is None else now
        ages: list[float] = []
        for path in self._entry_paths():
            try:
                stat = path.stat()
                entry = json.loads(path.read_bytes().decode())
                type_name = entry["result_type"]
                if entry["schema"] != CACHE_SCHEMA_VERSION:
                    raise ValueError("stale schema")
            except (OSError, ValueError, KeyError, TypeError):
                stats.corrupt += 1
                continue
            stats.entries += 1
            stats.total_bytes += stat.st_size
            stats.by_type[type_name] = stats.by_type.get(type_name, 0) + 1
            ages.append(now - stat.st_mtime)
        if ages:
            stats.oldest_age_s = max(ages)
            stats.newest_age_s = min(ages)
        from repro.runner.shard import MANIFEST_SUFFIX

        stats.manifests = sum(
            1 for _ in self.directory.glob(f"*{MANIFEST_SUFFIX}")
        )
        lock = self.directory / GC_LOCK_NAME
        stats.locked = lock.exists()
        return stats

    def __len__(self) -> int:
        return len(self._entry_paths())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ResultCache dir={self.directory} entries={len(self)}>"
