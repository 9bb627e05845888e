"""Concurrency soak: N client threads hammer one daemon.

The claims under load:

* **no lost or duplicated jobs** — every submission returns a unique id,
  every id reaches a terminal state, and each tenant sees exactly the
  jobs it submitted;
* **coalescing** — concurrent identical submissions trigger one compile
  (exactly one ``miss`` per fingerprint per burst, the rest are
  ``coalesced`` or ``hit``);
* **exact metrics** — ``/v1/metrics`` reconciles to the per-client
  tallies with no slack: counters are exact, not sampled.
"""

import threading

from repro.assays import glucose, paper_example
from repro.service.client import ServiceClient
from repro.service.server import ServiceConfig, start_in_thread

SOURCES = {
    "glucose": glucose.SOURCE,
    "fig2": paper_example.SOURCE,
}


class TestSoak:
    def test_many_clients_no_lost_jobs_exact_metrics(self):
        tenants = ("alice", "bob", "carol")
        jobs_per_client = 4
        handle = start_in_thread(
            ServiceConfig(workers=4, use_process_pool=False)
        )
        try:
            results: dict[str, list] = {tenant: [] for tenant in tenants}
            errors: list[Exception] = []
            barrier = threading.Barrier(len(tenants))

            def hammer(tenant: str) -> None:
                try:
                    client = ServiceClient(handle.url, tenant=tenant)
                    barrier.wait(timeout=60)
                    submitted = []
                    for i in range(jobs_per_client):
                        stem = ("glucose", "fig2")[i % 2]
                        job = client.submit(
                            "compile", SOURCES[stem], name=stem
                        )
                        submitted.append(job["id"])
                    for job_id in submitted:
                        final = client.wait(job_id, timeout=300)
                        body = client.result(job_id)
                        results[tenant].append((job_id, final, body))
                except Exception as error:  # pragma: no cover
                    errors.append(error)

            threads = [
                threading.Thread(target=hammer, args=(tenant,))
                for tenant in tenants
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=600)
            assert not errors, errors

            total = len(tenants) * jobs_per_client

            # --- no lost or duplicated jobs -------------------------------
            all_ids = [
                job_id
                for per_tenant in results.values()
                for job_id, _final, _body in per_tenant
            ]
            assert len(all_ids) == total
            assert len(set(all_ids)) == total
            for tenant in tenants:
                assert len(results[tenant]) == jobs_per_client
                client = ServiceClient(handle.url, tenant=tenant)
                listed = {job["id"] for job in client.list_jobs()}
                assert listed == {
                    job_id for job_id, _f, _b in results[tenant]
                }
            states = handle.service.jobs.count_by_state()
            assert states["done"] == total
            assert states["queued"] == states["running"] == 0
            assert states["failed"] == states["cancelled"] == 0

            # --- every job compiled correctly, listings agree -------------
            listings: dict[str, set] = {}
            cache_modes: dict[tuple, list] = {}
            for tenant, per_tenant in results.items():
                for _job_id, final, body in per_tenant:
                    assert final["state"] == "done"
                    result = body["result"]
                    assert result["exit_code"] == 0
                    listings.setdefault(result["name"], set()).add(
                        result["listing"]
                    )
                    cache_modes.setdefault(
                        (tenant, result["fingerprint"]), []
                    ).append(result["cache"])
            for stem, variants in listings.items():
                assert len(variants) == 1, f"{stem} listings diverged"

            # --- coalescing: one compile per (tenant, fingerprint) --------
            for key, modes in cache_modes.items():
                misses = modes.count("miss")
                assert misses <= 1, f"{key} compiled {misses} times"
                assert all(
                    mode in ("miss", "coalesced", "hit") for mode in modes
                )

            # --- exact metrics reconciliation -----------------------------
            metrics = ServiceClient(handle.url).metrics()
            assert metrics["jobs_total"]["submitted"] == total
            assert metrics["jobs_total"]["done"] == total
            assert metrics["jobs_total"]["failed"] == 0
            assert metrics["jobs_total"]["cancelled"] == 0
            assert metrics["jobs"]["compile"]["done"] == total
            assert metrics["queue_depth"] == 0
            assert metrics["workers"]["busy"] == 0
            coalesced_seen = sum(
                modes.count("coalesced")
                for modes in cache_modes.values()
            )
            assert metrics["coalesced"] == coalesced_seen
            assert (
                metrics["job_latency_ms"]["compile"]["count"] == total
            )
            # the hierarchy ran exactly once per non-warm compile
            non_warm = sum(
                modes.count("miss") for modes in cache_modes.values()
            )
            hierarchy = metrics["passes"].get("hierarchy", {"count": 0})
            assert hierarchy["count"] == non_warm
            by_tenant = metrics["cache_by_tenant"]
            assert set(by_tenant) == set(tenants)
        finally:
            handle.stop()

    def test_concurrent_identical_burst_coalesces(self, monkeypatch):
        """Deterministic coalescing: gate the one cold compile until every
        submission has reached its cache decision, then release it."""
        import time

        from repro.compiler import batch as batch_module

        fan_out = 4
        gate = threading.Event()
        real_cold = batch_module.compile_task

        def gated_cold(payload):
            assert gate.wait(timeout=120), "gate never released"
            return real_cold(payload)

        monkeypatch.setattr(batch_module, "compile_task", gated_cold)
        handle = start_in_thread(
            ServiceConfig(workers=fan_out, use_process_pool=False)
        )
        try:
            clients = [
                ServiceClient(handle.url, tenant=f"t{i}")
                for i in range(fan_out)
            ]
            jobs = [
                client.submit("compile", glucose.SOURCE)
                for client in clients
            ]
            # wait until every job has picked miss/coalesced, then open
            # the gate — the leader is provably still compiling
            deadline = time.monotonic() + 120
            while True:
                decisions = [
                    client.status(job["id"])["cache"]
                    for client, job in zip(clients, jobs)
                ]
                if all(decision is not None for decision in decisions):
                    break
                assert time.monotonic() < deadline, decisions
                time.sleep(0.005)
            gate.set()
            outcomes = []
            for client, job in zip(clients, jobs):
                final = client.wait(job["id"], timeout=300)
                assert final["state"] == "done"
                outcomes.append(final["cache"])
            assert outcomes.count("miss") == 1, outcomes
            assert outcomes.count("coalesced") == fan_out - 1, outcomes
            listings = {
                client.result(job["id"])["result"]["listing"]
                for client, job in zip(clients, jobs)
            }
            assert len(listings) == 1
            metrics = ServiceClient(handle.url).metrics()
            assert metrics["coalesced"] == fan_out - 1
            # the followers deposited: each tenant is warm now
            warm = clients[1].run("compile", glucose.SOURCE)
            assert warm["result"]["cache"] == "hit"
        finally:
            handle.stop()
