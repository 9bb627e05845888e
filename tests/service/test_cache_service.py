"""Served compiles vs the CLI: byte-identity and the warm-hit proof.

The acceptance bar for the daemon: a served artifact must be
byte-identical to what ``repro compile`` prints for the same source,
and a second same-tenant submission must be a cache hit whose
PassEvents *prove* the hierarchy passes were skipped (restore-plan
``cached``, hierarchy/round ``skipped``).
"""

import os
import subprocess
import sys
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.assays import glucose, paper_example
from repro.compiler import pool as pool_module
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
        cold_passes = passes_by_name(cold)
        warm_passes = passes_by_name(warm)
        assert cold_passes["hierarchy"]["status"] == "ok"
        assert warm_passes["restore-plan"]["status"] == "cached"
        assert warm_passes["restore-plan"]["cache"] == "hit"
        assert warm_passes["hierarchy"]["status"] == "skipped"
        assert warm_passes["round"]["status"] == "skipped"

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
            lambda workers, cache_dir=None: _BrokenFutures(),
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
