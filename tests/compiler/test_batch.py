"""The compile_many batch driver: dedupe, warm hits, fan-out, failures."""

import pytest

from repro.assays import generators, glucose, glycomics, paper_example
from repro.compiler.batch import BatchJob, BatchReport, compile_many
from repro.compiler.cache import PlanCache
from repro.compiler.passes import run_compile


def source_jobs():
    return [
        BatchJob("fig2", source=paper_example.SOURCE),
        BatchJob("glucose", source=glucose.SOURCE),
    ]


class TestBatchJob:
    def test_requires_exactly_one_input(self):
        with pytest.raises(ValueError):
            BatchJob("both", source="x", dag=generators.serial_dilution(3))
        with pytest.raises(ValueError):
            BatchJob("neither")


class TestCold:
    def test_all_compiled(self):
        report = compile_many(source_jobs(), cache=PlanCache())
        assert report.compiled == 2
        assert report.failed == 0
        assert all(r.fingerprint for r in report.results)

    def test_duplicates_deduped(self):
        jobs = [
            BatchJob(f"ladder-{i}", dag=generators.serial_dilution(5))
            for i in range(4)
        ]
        report = compile_many(jobs, cache=PlanCache())
        assert report.compiled == 1
        assert report.deduped == 3
        fingerprints = {r.fingerprint for r in report.results}
        assert len(fingerprints) == 1

    def test_dedupe_across_byte_different_sources(self):
        """Byte-different sources building the same DAG share a compile."""
        jobs = [
            BatchJob("verbatim", source=paper_example.SOURCE),
            BatchJob("reformatted", source=paper_example.SOURCE + "\n\n"),
        ]
        report = compile_many(jobs, cache=PlanCache())
        assert {r.status for r in report.results} == {"compiled", "deduped"}

    def test_failures_isolated(self):
        jobs = source_jobs() + [BatchJob("bad", source="assay nope {")]
        report = compile_many(jobs, cache=PlanCache())
        assert report.failed == 1
        assert report.compiled == 2
        failed = next(r for r in report.results if r.status == "failed")
        assert failed.name == "bad"
        assert failed.detail

    def test_runtime_assays_compile_but_do_not_cache_a_plan(self):
        cache = PlanCache()
        jobs = [BatchJob("glycomics", source=glycomics.SOURCE)]
        cold = compile_many(jobs, cache=cache)
        warm = compile_many(jobs, cache=cache)
        assert cold.results[0].plan_status == "runtime"
        assert not cold.results[0].cacheable
        assert warm.results[0].status == "compiled"   # legitimately re-runs


class TestWarm:
    def test_second_run_all_hits(self):
        cache = PlanCache()
        compile_many(source_jobs(), cache=cache)
        warm = compile_many(source_jobs(), cache=cache)
        assert warm.hits == 2
        assert warm.compiled == 0

    def test_source_fast_path_skips_frontend(self, monkeypatch):
        cache = PlanCache()
        compile_many(source_jobs(), cache=cache)

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("frontend ran on a warm source job")

        monkeypatch.setattr("repro.compiler.passes.stages.parse", boom)
        warm = compile_many(source_jobs(), cache=cache)
        assert warm.hits == 2

    def test_materialized_hits_match_fresh_compiles(self):
        cache = PlanCache()
        compile_many(source_jobs(), cache=cache)
        warm = compile_many(
            source_jobs(), cache=cache, certify=True, lint=True
        )
        assert warm.hits == 2
        for result in warm.results:
            assert result.certified_clean is True
            assert result.errors == 0
        fresh = run_compile(source=paper_example.SOURCE).compiled
        warm_single = run_compile(source=paper_example.SOURCE, cache=cache).compiled
        assert warm_single.listing() == fresh.listing()

    def test_materialized_hits_reuse_the_known_fingerprint(self, monkeypatch):
        """compile_one hands its fingerprint to the compile: the cache
        passes never compute it a second time."""
        import repro.core.fingerprint as fingerprint_module

        cache = PlanCache()
        compile_many(source_jobs(), cache=cache)
        calls = []
        real = fingerprint_module.compile_fingerprint

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(fingerprint_module, "compile_fingerprint", counted)
        warm = compile_many(source_jobs(), cache=cache, lint=True)
        assert warm.hits == 2
        assert calls == []

    def test_materialized_hits_match_cold_on_certify_findings(self):
        """EnzymeN 5 on aquacore double-books: the warm re-materialized
        hit reports the same findings as the cold compile."""
        cache = PlanCache()
        jobs = [BatchJob("enzyme-5", dag=generators.enzyme_n(5))]
        cold = compile_many(jobs, cache=cache, lint=True, certify=True)
        warm = compile_many(jobs, cache=cache, lint=True, certify=True)
        assert cold.results[0].status == "compiled"
        assert warm.results[0].status == "hit"
        fields = ("plan_status", "errors", "warnings", "certified_clean")
        for name in fields:
            assert getattr(warm.results[0], name) == getattr(
                cold.results[0], name
            ), name
        assert cold.results[0].certified_clean is False
        assert cold.results[0].errors > 0

    def test_spec_delta_misses(self):
        from repro.machine.spec import AQUACORE_XL_SPEC

        cache = PlanCache()
        compile_many(source_jobs(), cache=cache)
        other = compile_many(
            source_jobs(), cache=cache, spec=AQUACORE_XL_SPEC
        )
        assert other.hits == 0
        assert other.compiled == 2

    def test_option_delta_misses(self):
        cache = PlanCache()
        compile_many(source_jobs(), cache=cache)
        other = compile_many(
            source_jobs(), cache=cache, manager_options={"use_lp": False}
        )
        assert other.hits == 0

    def test_partial_options_normalized(self):
        """Explicit defaults and omitted defaults share fingerprints."""
        cache = PlanCache()
        compile_many(source_jobs(), cache=cache)
        warm = compile_many(
            source_jobs(),
            cache=cache,
            manager_options={"use_lp": True},   # == the default
        )
        assert warm.hits == 2


class TestWorkers:
    def test_process_pool_matches_in_process(self):
        jobs = source_jobs() + [
            BatchJob("dilution", dag=generators.serial_dilution(6)),
            BatchJob("bad", source="assay nope {"),
        ]
        seq = compile_many(jobs, cache=PlanCache(), max_workers=1)
        par = compile_many(jobs, cache=PlanCache(), max_workers=2)
        assert par.workers == 2
        for a, b in zip(seq.results, par.results):
            assert a.name == b.name
            assert a.status == b.status
            assert a.fingerprint == b.fingerprint
            assert a.plan_status == b.plan_status

    def test_pool_populates_shared_cache(self):
        cache = PlanCache()
        compile_many(source_jobs(), cache=cache, max_workers=2)
        warm = compile_many(source_jobs(), cache=cache)
        assert warm.hits == 2

    def test_auto_workers(self):
        report = compile_many(source_jobs(), cache=PlanCache(), max_workers=0)
        assert report.workers >= 1

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            compile_many(source_jobs(), max_workers=-1)


class TestReport:
    def test_to_dict_shape(self):
        report = compile_many(source_jobs(), cache=PlanCache())
        data = report.to_dict()
        assert data["jobs"] == 2
        assert set(data) >= {
            "hits", "compiled", "deduped", "failed",
            "wall_s", "throughput_per_s", "latency_ms", "cache", "results",
        }
        assert data["latency_ms"]["max"] >= data["latency_ms"]["mean"] > 0

    def test_render_mentions_every_job(self):
        report = compile_many(source_jobs(), cache=PlanCache())
        text = report.render()
        assert "fig2" in text and "glucose" in text

    def test_empty_batch(self):
        report = compile_many([], cache=PlanCache())
        assert isinstance(report, BatchReport)
        assert report.to_dict()["jobs"] == 0
