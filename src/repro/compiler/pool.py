"""Persistent worker pool for cold-compile fan-out.

A fresh ``ProcessPoolExecutor`` per batch would pay worker startup —
interpreter boot, ``repro`` + scipy imports — before compiling anything,
and both the batch driver and ``repro serve`` send small batches
repeatedly.  This module keeps **one warm pool per process**:

* :func:`get_pool` returns the live executor, creating it on first use
  (or when the requested worker count / cache directory changes).  The
  pool's initializer pre-imports the compiler stack so the first task a
  worker receives does not pay import latency, and opens a read-mostly
  :class:`~repro.compiler.cache.PlanCache` handle over the parent's
  cache *directory* when there is one — workers then serve their own
  vnorm-memo and plan-prefix hits from disk.  (Disk writes are atomic
  and canonical, so concurrent writers are safe by construction.)
* :func:`submit` queues one task and returns a cancellable future; every
  task ends counted once as ``completed``, ``cancelled`` or ``broken``
  (lost to a ``BrokenProcessPool``: a worker was OOM-killed or crashed).
* :func:`pool_map` is the front door of ``compile_many`` and ``repro
  serve``: it reruns in-process whatever a broken pool lost, so a caller
  never fails because of pool state.
* :func:`shutdown_pool` disposes the pool (also at exit).

The worker-side cache handle is exposed via :func:`worker_cache`; in
the parent process (inline compiles, ``max_workers == 1``) it is simply
``None``.
"""

from __future__ import annotations

import asyncio
import atexit
import functools
import os
import threading
from collections.abc import Callable, Iterable
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any

__all__ = [
    "default_workers",
    "get_pool",
    "pool_map",
    "pool_stats",
    "shutdown_pool",
    "submit",
    "worker_cache",
]

_POOL: ProcessPoolExecutor | None = None
_POOL_KEY: tuple[int, str | None] | None = None
_STATS = {
    "created": 0,
    "reused": 0,
    "broken": 0,
    "submitted": 0,
    "completed": 0,
    "cancelled": 0,
    "inflight": 0,
}
#: guards the pool slot and the counters; never held across a shutdown,
#: so a done callback taking it cannot deadlock a joining thread.
_LOCK = threading.Lock()

#: set inside worker processes by the initializer; None in the parent.
_WORKER_CACHE = None


def _warm_worker(cache_dir: str | None) -> None:
    """Pool initializer: preload the compiler stack, open the cache.

    Runs once per worker process.  The imports cover everything
    :func:`repro.compiler.batch.compile_task` touches (parser, pass
    pipeline, the LP solve's scipy ``milp``/HiGHS), so the first real task
    starts hot.
    """
    import repro.compiler.batch  # noqa: F401  (pulls pipeline + passes)
    import repro.core.lp  # noqa: F401  (pulls scipy.optimize)

    global _WORKER_CACHE
    if cache_dir is not None:
        from .cache import PlanCache

        _WORKER_CACHE = PlanCache(directory=cache_dir)


def worker_cache():
    """The worker-local :class:`PlanCache`, or None outside a worker."""
    return _WORKER_CACHE


def get_pool(
    max_workers: int, cache_dir: str | None = None
) -> ProcessPoolExecutor:
    """The process-wide warm pool, (re)created only when the shape changes.

    A pool is identified by ``(max_workers, cache_dir)``; asking for a
    different shape shuts the old pool down first, so there is never
    more than one alive.  Safe to call from several threads.
    """
    global _POOL, _POOL_KEY
    key = (max_workers, cache_dir)
    with _LOCK:
        if _POOL is not None and _POOL_KEY == key:
            _STATS["reused"] += 1
            return _POOL
        old, pool = _POOL, ProcessPoolExecutor(
            max_workers=max_workers,
            initializer=_warm_worker,
            initargs=(cache_dir,),
        )
        _POOL, _POOL_KEY = pool, key
        _STATS["created"] += 1
    if old is not None:
        old.shutdown(wait=_blocking_ok(), cancel_futures=True)
    return pool


def submit(
    fn: Callable[[Any], Any],
    payload: Any,
    *,
    max_workers: int,
    cache_dir: str | None = None,
) -> "Future[Any]":
    """Queue one task on the warm pool; returns a cancellable future.

    Never blocks and never raises for pool state: a pool that is already
    broken yields a future failed with ``BrokenProcessPool``.  A done
    callback keeps the counters either way.
    """
    pool = get_pool(max_workers, cache_dir)
    with _LOCK:
        _STATS["submitted"] += 1
        _STATS["inflight"] += 1
    try:
        future = pool.submit(fn, payload)
    except BrokenProcessPool as error:
        future = Future()
        future.set_exception(error)
    future.add_done_callback(functools.partial(_task_done, pool))
    return future


def _task_done(pool: ProcessPoolExecutor, future: "Future[Any]") -> None:
    """Count one finished task once; forget ``pool`` if it broke."""
    global _POOL, _POOL_KEY
    with _LOCK:
        _STATS["inflight"] -= 1
        if future.cancelled():
            _STATS["cancelled"] += 1
        elif isinstance(future.exception(), BrokenProcessPool):
            _STATS["broken"] += 1
            if _POOL is pool:
                # the executor has already terminated its workers
                _POOL, _POOL_KEY = None, None
        else:
            _STATS["completed"] += 1


def pool_map(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    *,
    max_workers: int,
    cache_dir: str | None = None,
) -> list[Any]:
    """``fn`` over ``items`` on the warm pool; lost tasks rerun inline.

    ``max_workers <= 1`` runs every item inline, with no pool.  Blocks
    until every result is in, so an event loop calls it from a thread.
    """
    items = list(items)
    if max_workers <= 1:
        return [fn(item) for item in items]
    futures = [
        submit(fn, item, max_workers=max_workers, cache_dir=cache_dir)
        for item in items
    ]
    results = []
    for future, item in zip(futures, items):
        try:
            results.append(future.result())
        except BrokenProcessPool:
            results.append(fn(item))
    return results


def default_workers() -> int:
    """A sensible worker count for ``--jobs 0`` (auto).

    Respects the CPU *affinity mask* (cgroup/container quota), not the
    raw host core count; falls back to ``os.cpu_count()`` on platforms
    without ``sched_getaffinity`` or when the mask is unreadable.  Pure
    (no blocking syscalls), so it is safe to call from a running event
    loop.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def pool_stats() -> dict[str, int]:
    """Lifetime pool and task counters, for reporting."""
    with _LOCK:
        return dict(_STATS)


def _blocking_ok() -> bool:
    """False on a thread running an asyncio event loop."""
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return True
    return False


def shutdown_pool(wait: bool | None = None) -> None:
    """Dispose the warm pool (workers exit); safe to call when absent.

    ``wait=None`` (the default) blocks until the workers exit —
    *except* when called from a thread running an asyncio event loop,
    where blocking would deadlock any coroutine awaiting a pool future;
    there it degrades to a non-blocking shutdown (workers reap in the
    background).  Pass ``wait=True``/``False`` to force either.
    """
    global _POOL, _POOL_KEY
    with _LOCK:
        pool, _POOL, _POOL_KEY = _POOL, None, None
    if pool is not None:
        pool.shutdown(
            wait=_blocking_ok() if wait is None else wait, cancel_futures=True
        )


atexit.register(shutdown_pool)
