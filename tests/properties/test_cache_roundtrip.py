"""Property: a cache-served plan is byte-identical to a fresh compile.

The acceptance bar for the plan cache — for any DAG the pipeline can
compile, the cache entry produced by a fresh compile of fingerprint F,
decoded and re-encoded (one full serde round trip, exactly what a disk
hit performs), must re-serialize to the same canonical bytes.  And a
warm compile through the cache must produce the same listing and the
same exact volumes as the cold compile it was seeded from.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assays import generators
from repro.compiler.passes import run_compile
from repro.compiler.cache import PlanCache, entry_from_plan, plan_from_entry
from repro.core.hierarchy import VolumeManager
from repro.core.limits import PAPER_LIMITS
from repro.core.rounding import round_assignment
from repro.core.serde import dumps_canonical

seeds = st.integers(min_value=0, max_value=5000)


def random_dag(seed: int):
    return generators.layered_random_dag(4, 2, 2, seed=seed, max_ratio=6)


class TestEntryByteIdentity:
    @given(seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_serde_round_trip_is_byte_identical(self, seed):
        dag = random_dag(seed)
        plan = VolumeManager(PAPER_LIMITS).plan(dag)
        rounded = (
            round_assignment(plan.assignment)
            if plan.assignment is not None
            else None
        )
        entry = entry_from_plan(plan, rounded, "f" * 64)
        decoded = plan_from_entry(entry)
        re_encoded = entry_from_plan(*decoded, "f" * 64)
        assert dumps_canonical(re_encoded) == dumps_canonical(entry)

    @given(seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_warm_compile_equals_cold_compile(self, seed):
        cache = PlanCache()
        cold = run_compile(dag=random_dag(seed), cache=cache).compiled
        warm = run_compile(dag=random_dag(seed), cache=cache).compiled
        assert warm.listing() == cold.listing()
        if cold.plan is not None and cold.plan.assignment is not None:
            assert warm.plan.assignment.node_volume == (
                cold.plan.assignment.node_volume
            )
            assert warm.plan.assignment.edge_volume == (
                cold.plan.assignment.edge_volume
            )
            assert warm.assignment.node_volume == (
                cold.assignment.node_volume
            )

    @given(seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_cache_entry_stable_across_disk_round_trip(self, seed, tmp_path_factory):
        import json
        import pathlib

        directory = tmp_path_factory.mktemp("cache")
        cache = PlanCache(directory=str(directory))
        run_compile(dag=random_dag(seed), cache=cache)
        for path in pathlib.Path(directory).glob("plan-*.json"):
            on_disk = path.read_text()
            assert dumps_canonical(json.loads(on_disk)) == on_disk


tenant_names = st.sampled_from(("alice", "bob", "carol", "tenant-01"))


def _warm_hit(compiled) -> bool:
    return any(d.code == "plan-cache" for d in compiled.diagnostics.items)


class TestMultiTenantProperties:
    """The tenancy contract, for any DAG the pipeline can compile."""

    @given(seed=seeds, a=tenant_names, b=tenant_names)
    @settings(max_examples=20, deadline=None)
    def test_tenants_are_isolated_but_byte_identical(self, seed, a, b):
        """B never sees A's entries; both still compile to one listing."""
        cache = PlanCache()
        cold = run_compile(dag=random_dag(seed), cache=cache.for_tenant(a)).compiled
        other = run_compile(dag=random_dag(seed), cache=cache.for_tenant(b)).compiled
        if a == b:
            if cold.plan is not None:
                assert _warm_hit(other)
        else:
            assert not _warm_hit(other)     # isolation: no cross-tenant hit
        assert other.listing() == cold.listing()

    @given(seed=seeds, tenant=tenant_names)
    @settings(max_examples=20, deadline=None)
    def test_same_tenant_warm_hit_is_byte_identical(self, seed, tenant):
        cache = PlanCache()
        view = cache.for_tenant(tenant)
        cold = run_compile(dag=random_dag(seed), cache=view).compiled
        warm = run_compile(dag=random_dag(seed), cache=view).compiled
        assert warm.listing() == cold.listing()
        if cold.plan is not None:
            assert _warm_hit(warm)
            assert warm.plan.assignment.node_volume == (
                cold.plan.assignment.node_volume
            )
            assert view.tenant_stats.hits >= 1

    @given(seed=seeds, tenant=tenant_names)
    @settings(max_examples=20, deadline=None)
    def test_ttl_expiry_recompiles_to_identical_bytes(self, seed, tenant):
        """An expired entry is recomputed, not served — and the fresh
        compile reproduces the evicted result exactly."""
        now = [0.0]
        cache = PlanCache(ttl_seconds=100.0, clock=lambda: now[0])
        view = cache.for_tenant(tenant)
        cold = run_compile(dag=random_dag(seed), cache=view).compiled
        now[0] = 101.0
        recompiled = run_compile(dag=random_dag(seed), cache=view).compiled
        assert not _warm_hit(recompiled)    # expired: must recompute
        assert recompiled.listing() == cold.listing()
        if cold.plan is not None:
            assert cache.stats.expired >= 1
            now[0] = 102.0                  # fresh deposit serves again
            warm = run_compile(dag=random_dag(seed), cache=view).compiled
            assert _warm_hit(warm)
            assert warm.listing() == cold.listing()
