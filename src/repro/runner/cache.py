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
        try:
            path.unlink()
        except OSError:
            pass
        self.stats.evicted_corrupt += 1

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*.json"))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ResultCache dir={self.directory} entries={len(self)}>"
