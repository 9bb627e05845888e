"""The persistent worker pool: reuse, byte-identity, graceful degradation."""

import os

from concurrent.futures.process import BrokenProcessPool

from repro.assays import generators, glucose, paper_example
from repro.compiler import pool as pool_module
from repro.compiler.batch import BatchJob, compile_many, default_workers
from repro.compiler.cache import PlanCache
from repro.compiler.pool import get_pool, pool_map, pool_stats, shutdown_pool


def fleet():
    return [
        BatchJob("fig2", source=paper_example.SOURCE),
        BatchJob("glucose", source=glucose.SOURCE),
        BatchJob("dilution", dag=generators.serial_dilution(5)),
    ]


class TestWarmReuse:
    def test_pool_survives_across_batches(self):
        shutdown_pool()
        before = pool_stats()
        compile_many(fleet(), cache=PlanCache(), max_workers=2)
        compile_many(fleet(), cache=PlanCache(), max_workers=2)
        after = pool_stats()
        assert after["created"] == before["created"] + 1
        assert after["reused"] >= before["reused"] + 1
        shutdown_pool()

    def test_shape_change_recreates(self):
        shutdown_pool()
        before = pool_stats()["created"]
        first = get_pool(2)
        assert get_pool(2) is first
        second = get_pool(3)
        assert second is not first
        assert pool_stats()["created"] == before + 2
        shutdown_pool()

    def test_pooled_cache_entries_byte_identical(self, tmp_path):
        """Disk entries written through pool workers equal inline ones."""
        shutdown_pool()
        inline_dir = tmp_path / "inline"
        pooled_dir = tmp_path / "pooled"
        compile_many(
            fleet(), cache=PlanCache(directory=str(inline_dir)), max_workers=1
        )
        compile_many(
            fleet(), cache=PlanCache(directory=str(pooled_dir)), max_workers=2
        )
        shutdown_pool()

        inline = sorted(os.listdir(inline_dir))
        pooled = sorted(os.listdir(pooled_dir))
        assert inline == pooled
        for name in inline:
            assert (inline_dir / name).read_bytes() == (
                pooled_dir / name
            ).read_bytes(), f"cache entry {name} differs"


class _BrokenExecutor:
    """A pool that already broke: submitting to it raises."""

    def submit(self, fn, item):
        raise BrokenProcessPool("worker died")


def _die_in_worker(item):
    """Kill the worker process that runs this; return ``value`` inline."""
    parent, value = item
    if os.getpid() != parent:
        os._exit(1)
    return value


class TestDegradation:
    def test_dead_worker_reruns_inline_and_drops_the_pool(self):
        shutdown_pool()
        before = pool_stats()
        items = [(os.getpid(), value) for value in range(3)]
        assert pool_map(_die_in_worker, items, max_workers=2) == [0, 1, 2]
        after = pool_stats()
        assert after["broken"] == before["broken"] + 3
        assert after["completed"] == before["completed"]
        # the broken pool was forgotten: the next task gets a fresh one
        assert pool_module.submit(str, 7, max_workers=2).result(120) == "7"
        assert pool_stats()["created"] == after["created"] + 1
        shutdown_pool()

    def test_broken_pool_falls_back_inline(self, monkeypatch):
        shutdown_pool()
        monkeypatch.setattr(
            pool_module, "get_pool", lambda workers: _BrokenExecutor()
        )
        before = pool_stats()
        assert pool_map(str, [1, 2, 3], max_workers=2) == ["1", "2", "3"]
        after = pool_stats()
        # each lost task is counted once, as broken, never as completed
        assert after["broken"] == before["broken"] + 3
        assert after["completed"] == before["completed"]
        assert after["inflight"] == before["inflight"]


class TestSubmit:
    def test_submit_counts_and_completes(self):
        shutdown_pool()
        before = pool_stats()
        future = pool_module.submit(str, 41, max_workers=2)
        assert future.result(timeout=120) == "41"
        after = pool_stats()
        assert after["submitted"] == before["submitted"] + 1
        assert after["completed"] == before["completed"] + 1
        assert after["inflight"] == 0
        shutdown_pool()

    def test_cancelled_future_counted(self):
        import threading
        import time

        shutdown_pool()
        before = pool_stats()["cancelled"]
        gate = threading.Event()
        # saturate the single worker so the second submit stays queued
        blocker = pool_module.submit(time.sleep, 5, max_workers=1)
        victim = pool_module.submit(str, 1, max_workers=1)
        cancelled = victim.cancel()
        gate.set()
        if cancelled:
            assert pool_stats()["cancelled"] == before + 1
        else:  # the worker grabbed it first: it must then complete
            assert victim.result(timeout=120) == "1"
        blocker.cancel()
        shutdown_pool(wait=False)

    def test_shutdown_from_event_loop_does_not_block(self):
        import asyncio
        import time

        shutdown_pool()
        get_pool(1)

        async def closer():
            start = time.monotonic()
            shutdown_pool()            # wait=None -> detects the loop
            return time.monotonic() - start

        elapsed = asyncio.run(closer())
        assert elapsed < 2.0
        assert pool_stats()["created"] >= 1

    def test_default_workers_safe_in_event_loop(self):
        import asyncio

        async def probe():
            return default_workers()

        assert asyncio.run(probe()) >= 1


class TestDefaultWorkers:
    def test_respects_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert default_workers() == 2

    def test_unreadable_mask_falls_back_to_cpu_count(self, monkeypatch):
        def boom(pid):
            raise OSError("mask unreadable")

        monkeypatch.setattr(os, "sched_getaffinity", boom, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert default_workers() == 3

    def test_never_below_one(self, monkeypatch):
        def boom(pid):
            raise OSError

        monkeypatch.setattr(os, "sched_getaffinity", boom, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert default_workers() == 1
