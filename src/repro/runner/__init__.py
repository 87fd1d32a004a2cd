"""Parallel, shardable sweep execution with persistent result caching.

The paper's evaluation is an embarrassingly-parallel matrix of independent
``(model, sender-count, seed)`` simulation cells.  This package executes
such matrices:

* :mod:`~repro.runner.hashing` — stable content keys for scenario configs
  (dataclass → canonical JSON → sha256);
* :mod:`~repro.runner.cache` — an on-disk :class:`ResultCache` keyed by
  those hashes (simulation *and* prototype results), with GC
  (:meth:`ResultCache.gc` — corruption, age, LRU-by-size under a
  cache-dir lockfile) and inventory stats;
* :mod:`~repro.runner.executor` — :class:`SweepRunner`, the one
  execution engine: cache lookups and stores, then in-process cells
  (``jobs == 1``) or a local process pool (``--jobs N`` /
  ``$REPRO_JOBS``), optionally restricted to one shard;
* :mod:`~repro.runner.shard` — :class:`ShardSpec`, deterministic
  ``shard K of N`` partitioning of a sweep across machines by config
  hash, shard manifests, and :func:`merge_shards` to assemble the
  machines' cache directories into one result set;
* :mod:`~repro.runner.progress` — per-cell :class:`ProgressEvent` stream
  (cells completed, cache hits, ETA) for CLI reporting.

Determinism: every stochastic choice in the simulator derives from the
config's own ``seed`` via named RNG streams (:mod:`repro.sim.rng`), so a
cell's result is a pure function of its config.  In-process, pooled and
sharded execution therefore produce byte-identical results (the
golden-trace tests pin a digest of them), and a config hash is a sound
cache key on any machine.
"""

from repro.runner.cache import (
    CacheDirLock,
    CacheLockedError,
    GcReport,
    ResultCache,
    default_cache_dir,
    register_result_type,
    results_digest,
)
from repro.runner.executor import SweepRunner, resolve_jobs, runner_from_env
from repro.runner.hashing import canonical_json, config_key
from repro.runner.progress import ProgressEvent, ProgressPrinter
from repro.runner.shard import (
    MergeError,
    MergeReport,
    ShardSpec,
    merge_shards,
    shard_index,
    write_shard_manifest,
)

__all__ = [
    "CacheDirLock",
    "CacheLockedError",
    "GcReport",
    "MergeError",
    "MergeReport",
    "ProgressEvent",
    "ProgressPrinter",
    "ResultCache",
    "ShardSpec",
    "SweepRunner",
    "canonical_json",
    "config_key",
    "default_cache_dir",
    "merge_shards",
    "register_result_type",
    "resolve_jobs",
    "results_digest",
    "runner_from_env",
    "shard_index",
    "write_shard_manifest",
]
