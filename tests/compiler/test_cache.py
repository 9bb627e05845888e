"""The content-addressed plan cache: LRU, disk level, namespaces."""

import threading

import pytest

from repro.assays import enzyme, paper_example
from repro.compiler.cache import PlanCache, entry_from_plan, plan_from_entry
from repro.compiler.passes import run_compile
from repro.core.hierarchy import VolumeManager
from repro.core.limits import PAPER_LIMITS
from repro.core.rounding import round_assignment
from repro.core.serde import dumps_canonical


def planned(dag):
    plan = VolumeManager(PAPER_LIMITS).plan(dag)
    rounded = round_assignment(plan.assignment)
    return plan, rounded


class TestStore:
    def test_lru_eviction(self):
        cache = PlanCache(max_entries=2)
        cache.put("plan-a", {"v": 1})
        cache.put("plan-b", {"v": 2})
        cache.put("plan-c", {"v": 3})
        assert len(cache) == 2
        assert cache.get("plan-a") is None
        assert cache.get("plan-c") == {"v": 3}
        assert cache.stats.evictions == 1

    def test_lru_order_updated_on_get(self):
        cache = PlanCache(max_entries=2)
        cache.put("plan-a", {"v": 1})
        cache.put("plan-b", {"v": 2})
        cache.get("plan-a")             # a becomes most recent
        cache.put("plan-c", {"v": 3})   # evicts b
        assert cache.get("plan-a") == {"v": 1}
        assert cache.get("plan-b") is None

    def test_disk_persistence_across_instances(self, tmp_path):
        directory = str(tmp_path / "cache")
        PlanCache(directory=directory).put("plan-x", {"v": 42})
        fresh = PlanCache(directory=directory)
        assert fresh.get("plan-x") == {"v": 42}
        assert fresh.stats.disk_hits == 1

    def test_disk_survives_memory_clear(self, tmp_path):
        cache = PlanCache(directory=str(tmp_path))
        cache.put("plan-x", {"v": 1})
        cache.clear_memory()
        assert len(cache) == 0
        assert cache.get("plan-x") == {"v": 1}

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        cache = PlanCache(directory=str(tmp_path))
        (tmp_path / "plan-bad.json").write_text("{not json")
        assert cache.get("plan-bad") is None
        assert cache.stats.misses == 1

    def test_contains_does_not_touch_stats(self, tmp_path):
        cache = PlanCache(directory=str(tmp_path))
        cache.put("plan-x", {"v": 1})
        assert cache.contains("plan-x")
        assert not cache.contains("plan-y")
        assert cache.stats.hits == 0
        assert cache.stats.misses == 0

    def test_stats_by_namespace(self):
        cache = PlanCache()
        cache.put("plan-a", {})
        cache.get("plan-a")
        cache.get("src-zzz")
        stats = cache.stats.to_dict()
        assert stats["by_namespace"]["plan"] == {"hits": 1, "misses": 0}
        assert stats["by_namespace"]["src"] == {"hits": 0, "misses": 1}


class TestPlanNamespace:
    def test_round_trip(self):
        dag = paper_example.build_dag()
        plan, rounded = planned(dag)
        cache = PlanCache()
        assert cache.put_plan("f" * 64, plan, rounded)
        restored_plan, restored_rounded = cache.get_plan("f" * 64)
        assert restored_plan.status == plan.status
        assert restored_plan.assignment.node_volume == (
            plan.assignment.node_volume
        )
        assert restored_rounded.node_volume == rounded.node_volume
        assert restored_rounded.dag is restored_plan.dag

    def test_uncacheable_plan_reports_false(self):
        dag = paper_example.build_dag()
        dag.node("A").meta["guard"] = object()   # not serializable
        plan, rounded = planned(dag)
        cache = PlanCache()
        assert not cache.put_plan("f" * 64, plan, rounded)
        assert cache.stats.uncacheable == 1
        assert cache.get_plan("f" * 64) is None

    def test_entry_bytes_stable(self):
        """The same plan serializes to the same canonical bytes twice."""
        dag = enzyme.build_dag()
        plan, rounded = planned(dag)
        a = dumps_canonical(entry_from_plan(plan, rounded))
        b = dumps_canonical(entry_from_plan(*plan_from_entry(
            entry_from_plan(plan, rounded)
        )))
        assert a == b


class TestPipelineIntegration:
    def test_warm_compile_listing_identical(self):
        cache = PlanCache()
        dag = paper_example.build_dag()
        cold = run_compile(dag=dag, cache=cache).compiled
        warm = run_compile(dag=paper_example.build_dag(), cache=cache).compiled
        assert warm.listing() == cold.listing()
        assert any(
            d.code == "plan-cache" for d in warm.diagnostics.items
        )
        assert not any(
            d.code == "plan-cache" for d in cold.diagnostics.items
        )

    def test_warm_plan_volumes_exact(self):
        cache = PlanCache()
        dag = enzyme.build_dag()
        cold = run_compile(dag=dag, cache=cache).compiled
        warm = run_compile(dag=enzyme.build_dag(), cache=cache).compiled
        assert warm.plan.assignment.node_volume == (
            cold.plan.assignment.node_volume
        )
        assert warm.assignment.node_volume == cold.assignment.node_volume

    def test_cached_plan_certifies(self):
        from repro.analysis.certify import certify

        cache = PlanCache()
        run_compile(dag=enzyme.build_dag(), cache=cache)
        warm = run_compile(dag=enzyme.build_dag(), cache=cache).compiled
        report = certify(warm)
        assert report.counts["error"] == 0, report.render_text()
        assert report.counts["warning"] == 0, report.render_text()

    def test_option_delta_misses(self):
        cache = PlanCache()
        dag = paper_example.build_dag()
        run_compile(dag=dag, cache=cache)
        manager = VolumeManager(PAPER_LIMITS, use_lp=False)
        recompiled = run_compile(
            dag=paper_example.build_dag(), manager=manager, cache=cache
        ).compiled
        assert not any(
            d.code == "plan-cache" for d in recompiled.diagnostics.items
        )

    def test_disk_cache_serves_new_process_state(self, tmp_path):
        """A fresh PlanCache over the same directory restores the plan."""
        directory = str(tmp_path)
        cold = run_compile(
            dag=enzyme.build_dag(), cache=PlanCache(directory=directory)
        ).compiled
        fresh = PlanCache(directory=directory)
        warm = run_compile(dag=enzyme.build_dag(), cache=fresh).compiled
        assert fresh.stats.disk_hits >= 1
        assert warm.listing() == cold.listing()


class TestTenantNamespaces:
    def test_tenant_keys_do_not_collide(self):
        cache = PlanCache()
        alice = cache.for_tenant("alice")
        bob = cache.for_tenant("bob")
        alice.put("plan-x", {"who": "alice"})
        bob.put("plan-x", {"who": "bob"})
        assert alice.get("plan-x") == {"who": "alice"}
        assert bob.get("plan-x") == {"who": "bob"}
        assert cache.get("plan-x") is None      # base namespace untouched

    def test_tenant_views_share_storage_and_stats(self):
        cache = PlanCache(max_entries=2)
        alice = cache.for_tenant("alice")
        bob = cache.for_tenant("bob")
        alice.put("plan-a", {"v": 1})
        bob.put("plan-b", {"v": 2})
        bob.put("plan-c", {"v": 3})     # evicts alice's LRU entry
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert alice.get("plan-a") is None

    def test_per_tenant_stats_are_disjoint(self):
        cache = PlanCache()
        alice = cache.for_tenant("alice")
        bob = cache.for_tenant("bob")
        alice.put("plan-a", {"v": 1})
        alice.get("plan-a")
        bob.get("plan-a")
        assert alice.tenant_stats.hits == 1
        assert alice.tenant_stats.misses == 0
        assert bob.tenant_stats.hits == 0
        assert bob.tenant_stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_tenant_disk_entries_namespaced(self, tmp_path):
        cache = PlanCache(directory=str(tmp_path))
        cache.for_tenant("alice").put("plan-x", {"v": 1})
        fresh = PlanCache(directory=str(tmp_path))
        assert fresh.for_tenant("alice").get("plan-x") == {"v": 1}
        assert fresh.for_tenant("bob").get("plan-x") is None
        assert fresh.get("plan-x") is None

    def test_bad_tenant_slug_rejected(self):
        cache = PlanCache()
        for bad in ("", "~oops", "a b", "x" * 65, "-lead"):
            with pytest.raises(ValueError):
                cache.for_tenant(bad)

    def test_nested_views_share_one_base(self):
        cache = PlanCache()
        alice = cache.for_tenant("alice")
        again = alice.for_tenant("alice")
        again.put("plan-x", {"v": 1})
        assert alice.get("plan-x") == {"v": 1}


class TestTTL:
    def test_memory_entry_expires(self):
        now = [0.0]
        cache = PlanCache(ttl_seconds=10, clock=lambda: now[0])
        cache.put("plan-x", {"v": 1})
        assert cache.get("plan-x") == {"v": 1}
        now[0] = 11.0
        assert cache.get("plan-x") is None
        assert cache.stats.expired == 1

    def test_put_refreshes_stamp(self):
        now = [0.0]
        cache = PlanCache(ttl_seconds=10, clock=lambda: now[0])
        cache.put("plan-x", {"v": 1})
        now[0] = 8.0
        cache.put("plan-x", {"v": 2})
        now[0] = 15.0                   # 7s after refresh, 15s after first
        assert cache.get("plan-x") == {"v": 2}

    def test_disk_entry_expires_and_unlinks(self, tmp_path):
        cache = PlanCache(directory=str(tmp_path), ttl_seconds=604800)
        cache.put("plan-x", {"v": 1})
        cache.clear_memory()
        path = tmp_path / "plan-x.json"
        assert path.exists()
        import os as os_module

        old = path.stat().st_mtime - 999999
        os_module.utime(path, (old, old))
        assert cache.get("plan-x") is None
        assert not path.exists()
        assert cache.stats.expired >= 1

    def test_contains_respects_ttl(self):
        now = [0.0]
        cache = PlanCache(ttl_seconds=5, clock=lambda: now[0])
        cache.put("plan-x", {"v": 1})
        assert cache.contains("plan-x")
        now[0] = 6.0
        assert not cache.contains("plan-x")

    def test_no_ttl_means_immortal(self):
        now = [0.0]
        cache = PlanCache(clock=lambda: now[0])
        cache.put("plan-x", {"v": 1})
        now[0] = 1e12
        assert cache.get("plan-x") == {"v": 1}


class TestConcurrency:
    def test_concurrent_mixed_mutation_is_safe(self, tmp_path):
        """Regression: stats/disk writes raced before the single lock."""
        cache = PlanCache(max_entries=64, directory=str(tmp_path))
        errors = []

        def hammer(tenant):
            try:
                view = cache.for_tenant(tenant)
                for i in range(200):
                    key = f"plan-{i % 40:02d}"
                    view.put(key, {"v": i})
                    view.get(key)
                    view.contains(key)
                    cache.stats.to_dict()
            except Exception as error:  # pragma: no cover - the regression
                errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(t,))
            for t in ("alice", "bob", "carol", "dave")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        stats = cache.stats.to_dict()
        # every get was preceded by a put of the same key: no misses
        # beyond those injected by LRU eviction racing the get
        assert stats["puts"] == 4 * 200
        assert stats["hits"] + stats["misses"] == 4 * 200


class TestErrors:
    def test_bad_max_entries(self):
        with pytest.raises(ValueError):
            PlanCache(max_entries=0)

    def test_unwritable_directory_degrades(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")      # a file where the dir should be
        cache = PlanCache(directory=str(blocker / "sub"))
        try:
            cache.put("plan-x", {"v": 1})
        except OSError:
            pytest.fail("disk failure must not raise")
        assert cache.get("plan-x") == {"v": 1}   # memory level still works
