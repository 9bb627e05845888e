"""Cold compiles on the worker pool honour tenancy and TTL.

With two workers a cold compile runs ``compile_task`` in a pool worker.
The worker compiles with no cache and the daemon deposits the plan into
the submitting tenant's namespace, so under a cache directory:

* a tenant never gets a plan another tenant compiled: its first compile
  runs the hierarchy;
* an expired plan is recompiled, not served from a worker;
* every file in the directory is tenant-qualified (``tenant~key``).
"""

import os
import time

import pytest

from repro.assays import glucose
from repro.compiler.pool import shutdown_pool
from repro.service.client import ServiceClient


@pytest.fixture
def pooled_service(service_factory, tmp_path):
    """A two-worker daemon on the process pool over ``tmp_path``."""

    def factory(**kwargs):
        return service_factory(
            workers=2, use_process_pool=True, cache_dir=str(tmp_path), **kwargs
        )

    yield factory
    shutdown_pool()


def assert_compiled_cold(result):
    """The job ran the hierarchy itself: no plan was restored."""
    passes = {
        event["name"]: event
        for event in result["stats"]["events"]["passes"]
    }
    assert result["cache"] == "miss"
    assert passes["restore-plan"]["status"] != "cached"
    assert passes["restore-plan"].get("cache") != "hit"
    assert passes["dagsolve"]["status"] == "ok"


def test_second_tenant_compiles_cold(pooled_service, tmp_path):
    handle = pooled_service()
    alice = ServiceClient(handle.url, tenant="alice")
    bob = ServiceClient(handle.url, tenant="bob")
    first = alice.run("compile", glucose.SOURCE)["result"]
    second = bob.run("compile", glucose.SOURCE)["result"]
    assert_compiled_cold(first)
    assert_compiled_cold(second)
    assert second["listing"] == first["listing"]
    assert bob.run("compile", glucose.SOURCE)["result"]["cache"] == "hit"
    names = os.listdir(tmp_path)
    assert names
    assert all("~" in name for name in names), sorted(names)


def test_expired_plan_is_recompiled(pooled_service, tmp_path):
    handle = pooled_service(ttl_seconds=1.0)
    client = ServiceClient(handle.url)
    first = client.run("compile", glucose.SOURCE)["result"]
    assert_compiled_cold(first)
    time.sleep(1.5)
    again = client.run("compile", glucose.SOURCE)["result"]
    assert_compiled_cold(again)
    assert again["listing"] == first["listing"]
    names = os.listdir(tmp_path)
    assert names
    assert all("~" in name for name in names), sorted(names)
