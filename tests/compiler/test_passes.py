"""The instrumented pass manager: golden equivalence + event contract.

Two suites:

* **Golden equivalence** — the deprecated shims (``compile_assay`` /
  ``compile_dag``) must produce byte-identical AIS listings and identical
  volume-plan summaries to driving :func:`repro.compiler.passes.run_compile`
  directly, across the whole assay corpus.
* **Event contract** — every executed pass emits exactly one
  :class:`PassEvent`; a warm plan cache skips exactly the volume-management
  prefix (restore-plan ``cached``/``hit``, hierarchy + round ``skipped``)
  while codegen still runs and the listing stays byte-identical.
"""

import pytest

from repro.assays import extra, generators, glucose, glycomics, paper_example
from repro.compiler import compile_assay, compile_dag
from repro.compiler.batch import BatchJob, compile_many
from repro.compiler.cache import PlanCache
from repro.compiler.passes import (
    PASS_EVENT_SCHEMA_VERSION,
    PassEventBus,
    events_payload,
    render_timing_table,
    run_compile,
)
from repro.core.errors import ResourceExhaustedError
from repro.core.hierarchy import VolumeManager
from repro.machine.spec import AQUACORE_SPEC

SOURCES = {
    "paper_example": paper_example.SOURCE,
    "glucose": glucose.SOURCE,
    "glycomics": glycomics.SOURCE,
    "elisa": extra.ELISA_SOURCE,
    "bradford": extra.BRADFORD_SOURCE,
    "pcr_prep": extra.PCR_PREP_SOURCE,
}

DAGS = {
    "paper_example": paper_example.build_dag,
    "enzyme_4": lambda: generators.enzyme_n(4),
    "serial_dilution": lambda: generators.serial_dilution(5),
    "mix_tree": lambda: generators.binary_mix_tree(3),
    "fanout": lambda: generators.fanout_chain(4, 3),
    "bradford_dag": extra.build_bradford_dag,
}


def plan_summary(compiled):
    if compiled.plan is None:
        return None
    return compiled.plan.summary()


class TestGoldenEquivalence:
    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_compile_assay_shim_matches_pass_manager(self, name):
        source = SOURCES[name]
        legacy = compile_assay(source)
        ctx = run_compile(source=source)
        assert legacy.listing() == ctx.compiled.listing()
        assert plan_summary(legacy) == plan_summary(ctx.compiled)
        assert [str(d) for d in legacy.diagnostics] == [
            str(d) for d in ctx.compiled.diagnostics
        ]

    @pytest.mark.parametrize("name", sorted(DAGS))
    def test_compile_dag_shim_matches_pass_manager(self, name):
        legacy = compile_dag(DAGS[name]())
        ctx = run_compile(dag=DAGS[name]())
        assert legacy.listing() == ctx.compiled.listing()
        assert plan_summary(legacy) == plan_summary(ctx.compiled)

    def test_lint_and_certify_ride_the_same_compile(self):
        legacy = compile_assay(glucose.SOURCE, lint=True, certify=True)
        ctx = run_compile(source=glucose.SOURCE, lint=True, certify=True)
        assert legacy.listing() == ctx.compiled.listing()
        assert [str(d) for d in legacy.diagnostics] == [
            str(d) for d in ctx.compiled.diagnostics
        ]


class TestEventContract:
    def compile_with_bus(self, source=None, dag=None, cache=None):
        bus = PassEventBus(fingerprints=True)
        ctx = run_compile(source=source, dag=dag, cache=cache, bus=bus)
        return ctx, bus

    def event(self, bus, name):
        found = [e for e in bus.events if e.name == name]
        assert found, f"no event named {name!r} in {[e.name for e in bus.events]}"
        return found[-1]

    def test_cold_compile_emits_one_event_per_pass(self):
        __, bus = self.compile_with_bus(source=glucose.SOURCE)
        names = [e.name for e in bus.events]
        # one event per top-level pass, plus round-stamped hierarchy stages
        for expected in (
            "parse", "unroll", "build-dag", "partition", "restore-plan",
            "dagsolve", "hierarchy", "round", "plan-report", "codegen",
            "lint", "assemble", "certify",
        ):
            assert expected in names
        assert self.event(bus, "parse").status == "ok"
        assert self.event(bus, "hierarchy").status == "ok"
        assert self.event(bus, "dagsolve").round == 1
        assert self.event(bus, "lint").status == "skipped"

    def test_events_carry_timing_and_fingerprints(self):
        __, bus = self.compile_with_bus(source=glucose.SOURCE)
        for event in bus.ran():
            assert event.wall_s >= 0.0
            assert event.cpu_s >= 0.0
        assert self.event(bus, "build-dag").fingerprint_out is not None
        payload = events_payload(bus)
        assert payload["version"] == PASS_EVENT_SCHEMA_VERSION
        assert len(payload["passes"]) == len(bus.events)
        table = render_timing_table(bus)
        assert "codegen" in table and "total:" in table

    def test_warm_cache_skips_exactly_the_plan_prefix(self):
        cache = PlanCache()
        cold_ctx, cold_bus = self.compile_with_bus(
            source=glucose.SOURCE, cache=cache
        )
        warm_ctx, warm_bus = self.compile_with_bus(
            source=glucose.SOURCE, cache=cache
        )
        assert self.event(cold_bus, "restore-plan").cache == "miss"
        assert self.event(cold_bus, "round").cache == "store"

        restore = self.event(warm_bus, "restore-plan")
        assert restore.status == "cached"
        assert restore.cache == "hit"
        assert self.event(warm_bus, "hierarchy").status == "skipped"
        assert self.event(warm_bus, "round").status == "skipped"
        # downstream passes still run on the restored plan
        assert self.event(warm_bus, "codegen").status == "ok"
        assert warm_ctx.compiled.listing() == cold_ctx.compiled.listing()
        assert (
            self.event(warm_bus, "codegen").fingerprint_out
            == self.event(cold_bus, "codegen").fingerprint_out
        )

    def test_failed_pass_emits_failed_event_and_reraises(self):
        bus = PassEventBus(fingerprints=False)
        with pytest.raises(Exception):
            run_compile(source="assay bad { this is not fluid }", bus=bus)
        assert bus.events, "the failing pass should still emit its event"
        assert bus.events[-1].status == "failed"

    def test_explain_names_the_winning_attempt(self):
        ctx, __ = self.compile_with_bus(source=glucose.SOURCE)
        text = ctx.pass_manager.explain(ctx)
        assert "pass plan:" in text
        assert "hierarchy" in text
        assert "dagsolve" in text


class TestProfileMode:
    """``profile=True``: leaf passes carry cProfile hotspots on their
    events; composite passes never nest a profiler."""

    def test_leaf_events_carry_hotspots(self):
        bus = PassEventBus()
        run_compile(source=glucose.SOURCE, bus=bus, profile=True)
        profiled = [e for e in bus.events if e.profile]
        assert profiled, "no pass carried profile hotspots"
        for event in profiled:
            assert event.name != "hierarchy"  # composite: stages only
            for spot in event.profile:
                assert {"func", "calls", "tottime_ms", "cumtime_ms"} <= set(
                    spot
                )
        # the hierarchy loop's stages are profiled individually
        assert any(e.round is not None for e in profiled)

    def test_profile_off_leaves_events_clean(self):
        bus = PassEventBus()
        run_compile(source=glucose.SOURCE, bus=bus)
        assert all(not e.profile for e in bus.events)

    def test_payload_and_table_render(self):
        from repro.compiler.passes.events import (
            profile_payload,
            render_profile_table,
        )

        bus = PassEventBus()
        run_compile(source=glucose.SOURCE, bus=bus, profile=True)
        payload = profile_payload(bus)
        assert payload and all(
            {"pass", "hotspots"} <= set(entry) for entry in payload
        )
        table = render_profile_table(bus)
        assert "cProfile hotspots" in table
        assert "ms cum" in table

    def test_profiled_compile_matches_unprofiled(self):
        plain = run_compile(source=glucose.SOURCE)
        profiled = run_compile(source=glucose.SOURCE, profile=True)
        assert profiled.compiled.listing() == plain.compiled.listing()


class TestAllocationFailure:
    """Running out of machine resources in codegen is a coded compile
    failure (a ResourceExhaustedError), not a raw exception."""

    @pytest.mark.parametrize(
        "n_dilutions, objective", [(7, "default"), (5, "waste")]
    )
    def test_out_of_input_ports(self, n_dilutions, objective):
        manager = VolumeManager(AQUACORE_SPEC.limits, objective=objective)
        with pytest.raises(ResourceExhaustedError, match="out of input ports"):
            run_compile(dag=generators.enzyme_n(n_dilutions), manager=manager)

    def test_batch_reports_a_failed_job(self):
        report = compile_many([BatchJob("e7", dag=generators.enzyme_n(7))])
        (result,) = report.results
        assert result.status == "failed"
        assert result.detail.startswith("out of input ports")
