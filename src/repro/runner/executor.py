"""The sweep executor: cache-aware cell execution, in-process or pooled.

:class:`SweepRunner` maps a pure function over a batch of configs.  It
serves cached cells from the :class:`~repro.runner.cache.ResultCache`,
keeps only the cells its :class:`~repro.runner.shard.ShardSpec` owns
when it runs one machine's slice of a multi-machine sweep, and executes
the rest one of two ways:

* in-process and in order, when ``jobs == 1`` or at most one cell is
  pending (a pool spawn costs more than one cell);
* otherwise on a local ``ProcessPoolExecutor`` of
  ``min(jobs, pending)`` workers.

Either way, results are stored, reported and put back in input order by
the coordinating process as each cell finishes.  Because every cell's
result is a pure function of its config (see :mod:`repro.sim.rng` — all
randomness derives from the config's own seed), the execution mode
changes wall-clock time only, never results, and results can be cached
across processes, sessions and machines.

Pool execution needs ``fn`` to be module-level (picklable) and configs
to be picklable dataclasses, which
:func:`~repro.models.scenario.run_scenario` /
:class:`~repro.models.scenario.ScenarioConfig` and
:func:`~repro.testbed.experiment.run_prototype` /
:class:`~repro.testbed.experiment.PrototypeConfig` all satisfy.
"""

from __future__ import annotations

import concurrent.futures
import os
import typing

from repro.runner.cache import CACHE_DIR_ENV, ResultCache
from repro.runner.hashing import config_key
from repro.runner.progress import ProgressEvent, ProgressTracker
from repro.runner.shard import ShardSpec

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
        Worker processes; ``None`` (the default) reads ``$REPRO_JOBS``,
        then 1.  1 runs in-process and in order; 0 means all cores.
    cache:
        Optional :class:`ResultCache`; hits skip execution entirely.
    progress:
        Optional callback receiving one :class:`ProgressEvent` per
        finished cell.
    shard:
        Execute only the cells this :class:`ShardSpec` owns (one
        machine's deterministic slice of a multi-machine sweep).  A shard
        run's product is its cache entries, so it requires a cache.
    """

    def __init__(
        self,
        jobs: int | None = None,
        cache: ResultCache | None = None,
        progress: typing.Callable[[ProgressEvent], None] | None = None,
        shard: ShardSpec | None = None,
    ):
        if shard is not None and cache is None:
            raise ValueError(
                f"shard {shard} executes only a slice of each batch and "
                "therefore requires a result cache"
            )
        self.jobs = resolve_jobs(jobs)
        self.cache = cache
        self.progress = progress
        self.shard = shard

    def map(
        self,
        fn: typing.Callable[[ConfigT], ResultT],
        configs: typing.Sequence[ConfigT],
        describe: typing.Callable[[int, ConfigT], str] | None = None,
    ) -> list[ResultT]:
        """Run ``fn`` over ``configs``, returning results in input order.

        Cached cells are served without executing ``fn``; the rest are
        executed.  Either way the returned list lines up index-for-index
        with ``configs``.  Under a shard the slots of out-of-shard,
        uncached cells are ``None`` — the product of such a run is its
        cache entries, not the returned list.
        """
        if describe is None:
            describe = lambda index, _config: f"cell {index}"  # noqa: E731
        results: list[ResultT | None] = [None] * len(configs)
        hits: list[int] = []
        pending: list[int] = []
        for index, config in enumerate(configs):
            cached = self.cache.get(config) if self.cache is not None else None
            if cached is not None:
                results[index] = typing.cast(ResultT, cached)
                hits.append(index)
            elif self.shard is None or self.shard.owns(config_key(config)):
                pending.append(index)
        # Out-of-shard uncached cells never complete here, so they count
        # neither towards the total nor the ETA.
        tracker = ProgressTracker(len(hits) + len(pending), sink=self.progress)
        for index in hits:
            tracker.cell_done(index, describe(index, configs[index]), cached=True)

        def complete(index: int, result: typing.Any) -> None:
            results[index] = typing.cast(ResultT, result)
            if self.cache is not None:
                self.cache.put(configs[index], result)
            tracker.cell_done(index, describe(index, configs[index]), cached=False)

        if self.jobs == 1 or len(pending) <= 1:
            for index in pending:
                complete(index, fn(configs[index]))
        else:
            _run_pool(fn, configs, pending, min(self.jobs, len(pending)), complete)
        return typing.cast("list[ResultT]", results)


def _run_pool(
    fn: typing.Callable[[typing.Any], typing.Any],
    configs: typing.Sequence[typing.Any],
    pending: typing.Sequence[int],
    workers: int,
    complete: typing.Callable[[int, typing.Any], None],
) -> None:
    """Fan ``pending`` over ``workers`` processes; ``complete`` each here.

    Cells finish in whatever order workers do; ``complete`` runs in the
    calling process, once per cell.
    """
    pool = concurrent.futures.ProcessPoolExecutor(workers)
    try:
        futures = {pool.submit(fn, configs[index]): index for index in pending}
        for future in concurrent.futures.as_completed(futures):
            complete(futures[future], future.result())
    except BaseException:
        # On Ctrl-C (or a failed cell) drop the queued cells instead of
        # draining them — a paper-scale sweep queues thousands.
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown()


def runner_from_env(
    progress: typing.Callable[[ProgressEvent], None] | None = None,
) -> SweepRunner:
    """A runner configured purely from the environment.

    ``$REPRO_JOBS`` picks the worker count (default serial) and, when
    ``$REPRO_CACHE_DIR`` is set, results persist there; without it no disk
    cache is used.  This is what the benchmark suite builds, so local runs
    get the speedup by exporting two variables and CI stays hermetic.
    """
    cache_dir = os.environ.get(CACHE_DIR_ENV)
    cache = ResultCache(cache_dir) if cache_dir else None
    return SweepRunner(cache=cache, progress=progress)
