"""Served compiles vs the CLI: byte-identity and the warm-hit proof.

The acceptance bar for the daemon: a served artifact must be
byte-identical to what ``repro compile`` prints for the same source,
and a second same-tenant submission must be a cache hit whose
PassEvents *prove* only the request-digest lookup ran (one restore-plan
``cached`` event; a new source whose plan is held shows hierarchy/round
``skipped``).
"""

import os
import subprocess
import sys
import threading
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.assays import enzyme, glucose, glycomics, paper_example
from repro.compiler import pool as pool_module
from repro.core.fingerprint import plan_key, source_fingerprint, source_key
from repro.core.hierarchy import VolumeManager
from repro.machine.spec import MACHINES
from repro.service.client import ServiceClient


def cli_compile(tmp_path, source, stem):
    path = tmp_path / f"{stem}.assay"
    path.write_text(source)
    env = {**os.environ, "PYTHONPATH": "src"}
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "compile", str(path)],
        capture_output=True,
        env=env,
        cwd=os.path.join(os.path.dirname(__file__), "..", ".."),
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def passes_by_name(result):
    return {
        event["name"]: event
        for event in result["stats"]["events"]["passes"]
    }


class TestByteIdentity:
    def test_served_listing_equals_cli_output(self, client, tmp_path):
        for stem, source in (
            ("glucose", glucose.SOURCE),
            ("fig2", paper_example.SOURCE),
        ):
            served = client.artifact(
                client.run("compile", source)["job"]["id"]
            )
            assert served == cli_compile(tmp_path, source, stem)

    def test_warm_artifact_equals_cold_artifact(self, client):
        cold = client.run("compile", glucose.SOURCE)
        warm = client.run("compile", glucose.SOURCE)
        assert warm["result"]["cache"] == "hit"
        assert client.artifact(warm["job"]["id"]) == client.artifact(
            cold["job"]["id"]
        )


class TestWarmHitProof:
    def test_second_submission_skips_hierarchy(self, client):
        cold = client.run("compile", glucose.SOURCE)["result"]
        warm = client.run("compile", glucose.SOURCE)["result"]
        assert cold["cache"] == "miss"
        assert warm["cache"] == "hit"
        assert passes_by_name(cold)["hierarchy"]["status"] == "ok"
        [event] = warm["stats"]["events"]["passes"]
        assert event["name"] == "restore-plan"
        assert event["status"] == "cached"
        assert event["cache"] == "hit"
        assert warm["fingerprint"] == cold["fingerprint"]
        assert warm["listing"] == cold["listing"]

    def test_new_source_with_held_plan_skips_hierarchy(self, client):
        cold = client.run("compile", glucose.SOURCE)["result"]
        # new bytes, same DAG: the digest misses, the plan is held
        warm = client.run("compile", glucose.SOURCE + "\n")["result"]
        assert warm["cache"] == "hit"
        assert warm["fingerprint"] == cold["fingerprint"]
        warm_passes = passes_by_name(warm)
        assert warm_passes["restore-plan"]["status"] == "cached"
        assert warm_passes["restore-plan"]["cache"] == "hit"
        assert warm_passes["hierarchy"]["status"] == "skipped"
        assert warm_passes["round"]["status"] == "skipped"
        assert warm_passes["codegen"]["status"] == "ok"
        assert warm["listing"] == cold["listing"]

    def test_tenants_do_not_share_warm_hits(self, service):
        alice = ServiceClient(service.url, tenant="alice")
        bob = ServiceClient(service.url, tenant="bob")
        first = alice.run("compile", glucose.SOURCE)["result"]
        second = bob.run("compile", glucose.SOURCE)["result"]
        third = bob.run("compile", glucose.SOURCE)["result"]
        assert first["cache"] == "miss"
        assert second["cache"] == "miss"    # bob's namespace was cold
        assert third["cache"] == "hit"
        assert first["listing"] == second["listing"] == third["listing"]

    def test_metrics_expose_per_tenant_cache(self, service):
        alice = ServiceClient(service.url, tenant="alice")
        alice.run("compile", glucose.SOURCE)
        alice.run("compile", glucose.SOURCE)
        by_tenant = alice.metrics()["cache_by_tenant"]
        assert by_tenant["alice"]["puts"] >= 1
        assert by_tenant["alice"]["hits"] >= 1


class TestCoalescedFollower:
    def test_renamed_follower_gets_its_own_listing(
        self, service_factory, monkeypatch, tmp_path
    ):
        """The compile fingerprint leaves out the assay's name: a
        follower coalesced onto a differently named leader must still
        get the listing ``repro compile`` prints for its own source."""
        from repro.compiler import batch as batch_module

        gate = threading.Event()
        real_task = batch_module.compile_task

        def gated_task(payload):
            assert gate.wait(timeout=120), "gate never released"
            return real_task(payload)

        monkeypatch.setattr(batch_module, "compile_task", gated_task)
        handle = service_factory(workers=2)
        client = ServiceClient(handle.url)
        renamed = enzyme.SOURCE.replace(
            "ASSAY enzyme_test", "ASSAY enzyme_test2", 1
        )
        jobs = {
            b"enzyme_test{": client.submit("compile", enzyme.SOURCE),
            b"enzyme_test2{": client.submit("compile", renamed),
        }
        deadline = time.monotonic() + 120
        while any(
            client.status(job["id"])["cache"] is None
            for job in jobs.values()
        ):
            assert time.monotonic() < deadline
            time.sleep(0.005)
        gate.set()
        modes = sorted(
            client.wait(job["id"], timeout=300)["cache"]
            for job in jobs.values()
        )
        assert modes == ["coalesced", "miss"]
        for head, job in jobs.items():
            assert client.artifact(job["id"]).startswith(head)
        served = client.artifact(jobs[b"enzyme_test2{"]["id"])
        assert served == cli_compile(tmp_path, renamed, "renamed")
        # each job's own listing is what later hits serve
        for source, job in zip((enzyme.SOURCE, renamed), jobs.values()):
            again = client.run("compile", source)
            assert again["result"]["cache"] == "hit"
            assert client.artifact(again["job"]["id"]) == client.artifact(
                job["id"]
            )


class TestRequestEntry:
    def test_evicted_plan_turns_digest_hit_into_miss(self, service_factory):
        handle = service_factory(cache_entries=3)
        client = ServiceClient(handle.url)
        cold = client.run("compile", glucose.SOURCE)
        # glucose's plan- and src- entries, then two for fig2: the LRU
        # bound drops glucose's plan and keeps its request entry
        client.run("compile", paper_example.SOURCE)
        tcache = handle.service.tenant_cache("public")
        fingerprint = cold["result"]["fingerprint"]
        digest = source_fingerprint(
            glucose.SOURCE,
            MACHINES["aquacore"],
            VolumeManager(MACHINES["aquacore"].limits).options_dict(),
        )
        assert tcache.contains(source_key(digest))
        assert not tcache.contains(plan_key(fingerprint))
        again = client.run("compile", glucose.SOURCE)
        assert again["result"]["cache"] == "miss"
        assert client.artifact(again["job"]["id"]) == client.artifact(
            cold["job"]["id"]
        )

    def test_digest_hit_keeps_its_plan_recent(self, service_factory):
        handle = service_factory(cache_entries=3)
        client = ServiceClient(handle.url)
        client.run("compile", glucose.SOURCE)
        hit = client.run("compile", glucose.SOURCE)["result"]
        assert hit["cache"] == "hit"
        # the digest hit used glucose's plan: fig2's two entries evict
        # the older request entry, not the plan
        client.run("compile", paper_example.SOURCE)
        again = client.run("compile", glucose.SOURCE)["result"]
        assert again["cache"] == "hit"
        assert again["listing"] == hit["listing"]

    def test_runtime_deferred_assay_stores_no_request_entry(self, client):
        first = client.run("compile", glycomics.SOURCE)["result"]
        second = client.run("compile", glycomics.SOURCE)["result"]
        assert first["plan_status"] == "runtime"
        assert second["cache"] == "miss"
        assert "codegen" in passes_by_name(second)
        assert second["listing"] == first["listing"]


class TestTTL:
    def test_expired_entry_recompiles_to_identical_bytes(
        self, service_factory
    ):
        handle = service_factory(ttl_seconds=3600.0)
        client = ServiceClient(handle.url)
        cold = client.run("compile", glucose.SOURCE)["result"]
        cache = handle.service.cache
        with cache._lock:       # age every stamp past the TTL
            for key in cache._stamps:
                cache._stamps[key] -= 7200.0
        again = client.run("compile", glucose.SOURCE)["result"]
        assert again["cache"] == "miss"     # expired, not served
        assert again["listing"] == cold["listing"]
        assert cache.stats.expired >= 1
        third = client.run("compile", glucose.SOURCE)["result"]
        assert third["cache"] == "hit"      # re-deposited after expiry


class TestCachePolicy:
    @pytest.mark.parametrize("kind", ["lint", "certify"])
    def test_assay_jobs_compile_through_tenant_cache(self, service, kind):
        alice = ServiceClient(service.url, tenant="alice")
        alice.run("compile", glucose.SOURCE)
        before = alice.metrics()["cache_by_tenant"]["alice"]["hits"]
        alice.run(kind, glucose.SOURCE, params={"assay": True})
        after = alice.metrics()["cache_by_tenant"]["alice"]["hits"]
        assert after == before + 1


class _BrokenFutures:
    """An executor whose every task is lost to a dead worker."""

    def submit(self, fn, payload):
        future = Future()
        future.set_exception(BrokenProcessPool("worker died"))
        return future


class TestPoolBreakage:
    def test_broken_task_counted_broken_and_rerun_inline(
        self, service_factory, monkeypatch
    ):
        monkeypatch.setattr(
            pool_module, "get_pool",
            lambda workers: _BrokenFutures(),
        )
        handle = service_factory(workers=2, use_process_pool=True)
        client = ServiceClient(handle.url)
        before = client.metrics()["pool"]
        job = client.run("compile", glucose.SOURCE)
        assert job["job"]["state"] == "done"
        assert job["result"]["cache"] == "miss"
        after = client.metrics()["pool"]
        assert after["broken"] == before["broken"] + 1
        assert after["completed"] == before["completed"]
        assert after["inflight"] == before["inflight"]
