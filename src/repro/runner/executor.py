"""The sweep executor: cache-aware cell execution over pluggable backends.

:class:`SweepRunner` maps a pure function over a batch of configs.  The
strategy-independent parts live here — cache lookups and stores, progress
events, result ordering — while the actual execution is delegated to a
:class:`~repro.runner.backends.Backend`:

* :class:`~repro.runner.backends.SerialBackend` — in-process, in-order,
  bit-identical to the pre-runner code path (the default for ``jobs=1``);
* :class:`~repro.runner.backends.ProcessBackend` — a local
  ``ProcessPoolExecutor`` fan-out (``jobs > 1``);
* :class:`~repro.runner.shard.ShardBackend` — one machine's deterministic
  slice of a multi-machine run (requires a cache; see
  :mod:`repro.runner.shard`).

Because every cell's result is a pure function of its config (see
:mod:`repro.sim.rng` — all randomness derives from the config's own
seed), the backend changes wall-clock time only, never results, and
results can be cached across processes, sessions and machines.

Process-crossing backends need ``fn`` to be module-level (picklable) and
configs to be dataclasses, which :func:`~repro.models.scenario.run_scenario`
and :class:`~repro.models.scenario.ScenarioConfig` satisfy.
"""

from __future__ import annotations

import os
import typing

from repro.runner.backends import Backend, default_backend
from repro.runner.cache import CACHE_DIR_ENV, ResultCache
from repro.runner.progress import ProgressEvent, ProgressTracker

#: Environment variable supplying the default worker count.
JOBS_ENV = "REPRO_JOBS"

ConfigT = typing.TypeVar("ConfigT")
ResultT = typing.TypeVar("ResultT")


def resolve_jobs(jobs: int | None) -> int:
    """Resolve a ``--jobs`` value to a concrete worker count.

    ``None`` falls back to ``$REPRO_JOBS``, then to 1 (serial).  A value
    of 0 (or any negative) means "all cores".
    """
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise ValueError(
                f"${JOBS_ENV} must be an integer, got {raw!r}"
            ) from None
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


class SweepRunner:
    """Executes batches of independent cells, with caching and progress.

    Parameters
    ----------
    jobs:
        Worker processes; 1 (the default) runs serial and in-process,
        ``None`` reads ``$REPRO_JOBS``, and 0 means all cores.  Ignored
        when ``backend`` is given explicitly.
    cache:
        Optional :class:`ResultCache`; hits skip execution entirely.
    progress:
        Optional callback receiving one :class:`ProgressEvent` per
        finished cell.
    backend:
        Execution strategy.  Defaults to what ``jobs`` implies (serial
        or process pool), overridable globally via ``$REPRO_BACKEND``.
        Backends that execute only a slice of the batch (sharding)
        require a cache — the runner refuses them without one, since the
        skipped cells' results would be silently lost.
    """

    def __init__(
        self,
        jobs: int | None = 1,
        cache: ResultCache | None = None,
        progress: typing.Callable[[ProgressEvent], None] | None = None,
        backend: Backend | None = None,
    ):
        self.jobs = resolve_jobs(jobs)
        self.backend = (
            backend if backend is not None else default_backend(self.jobs)
        )
        if self.backend.requires_cache and cache is None:
            raise ValueError(
                f"backend {self.backend.name!r} executes only a slice of "
                "each batch and therefore requires a result cache"
            )
        self.cache = cache
        self.progress = progress

    def map(
        self,
        fn: typing.Callable[[ConfigT], ResultT],
        configs: typing.Sequence[ConfigT],
        describe: typing.Callable[[int, ConfigT], str] | None = None,
    ) -> list[ResultT]:
        """Run ``fn`` over ``configs``, returning results in input order.

        Cached cells are served without executing ``fn``; the rest go to
        the backend.  Either way the returned list lines up
        index-for-index with ``configs``.  Under a sharding backend the
        slots of out-of-shard, uncached cells are ``None`` — the product
        of such a run is its cache entries, not the returned list.
        """
        if describe is None:
            describe = lambda index, _config: f"cell {index}"  # noqa: E731
        tracker = ProgressTracker(len(configs), sink=self.progress)
        results: list[ResultT | None] = [None] * len(configs)
        pending: list[int] = []
        for index, config in enumerate(configs):
            cached = self.cache.get(config) if self.cache is not None else None
            if cached is not None:
                results[index] = typing.cast(ResultT, cached)
                tracker.cell_done(index, describe(index, config), cached=True)
            else:
                pending.append(index)

        def complete(index: int, result: typing.Any) -> None:
            results[index] = typing.cast(ResultT, result)
            if self.cache is not None:
                self.cache.put(configs[index], result)
            tracker.cell_done(index, describe(index, configs[index]), cached=False)

        self.backend.execute(fn, configs, pending, complete)
        return typing.cast("list[ResultT]", results)


def runner_from_env(
    progress: typing.Callable[[ProgressEvent], None] | None = None,
) -> SweepRunner:
    """A runner configured purely from the environment.

    ``$REPRO_JOBS`` picks the worker count (default serial),
    ``$REPRO_BACKEND`` overrides the execution strategy, and, when
    ``$REPRO_CACHE_DIR`` is set, results persist there; without it no disk
    cache is used.  This is what the benchmark suite builds, so local runs
    get the speedup by exporting two variables and CI stays hermetic.
    """
    cache_dir = os.environ.get(CACHE_DIR_ENV)
    cache = ResultCache(cache_dir) if cache_dir else None
    return SweepRunner(jobs=None, cache=cache, progress=progress)
