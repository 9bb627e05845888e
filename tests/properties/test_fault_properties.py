"""Fault-injection properties.

Two contracts from the robustness design (docs/ROBUSTNESS.md):

1. **Zero-fault transparency** — installing an injector with the empty
   fault plan is a strict no-op: the trace and readings are byte-identical
   to running with no injector at all.
2. **Loss-fault semantic transparency** — a run perturbed only by *loss*
   faults (reservoir depletion, transient transport failure) that
   completes within its recovery bounds ends with exactly the fault-free
   product mixtures, readings, and shipped volumes: retries repeat
   un-started transfers and regeneration re-executes producing slices at
   their planned volumes.
"""

import json
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.assays import generators
from repro.compiler.passes import run_compile
from repro.machine.faults import LOSS_KINDS, FaultInjector, FaultPlan
from repro.machine.interpreter import Machine
from repro.machine.spec import AQUACORE_XL_SPEC
from repro.runtime.executor import AssayExecutor

dag_seeds = st.integers(min_value=0, max_value=1_500)
fault_seeds = st.integers(min_value=0, max_value=10_000)


def build_compiled(seed):
    dag = generators.layered_random_dag(4, 3, 2, seed=seed, max_ratio=9)
    return run_compile(dag=dag, spec=AQUACORE_XL_SPEC).compiled


def run(compiled, injector=None):
    machine = Machine(AQUACORE_XL_SPEC)
    executor = AssayExecutor(
        compiled, machine, injector=injector, capture_failures=True
    )
    return executor.run()


def canonical_trace(result) -> str:
    return json.dumps(result.trace.to_dict(), sort_keys=True)


class TestZeroFaultTransparency:
    @given(seed=dag_seeds)
    @settings(max_examples=20, deadline=None)
    def test_empty_plan_is_byte_identical(self, seed):
        compiled = build_compiled(seed)
        plain = run(compiled)
        injected = run(compiled, FaultInjector(FaultPlan.none()))
        assert canonical_trace(injected) == canonical_trace(plain)
        assert injected.results == plain.results
        assert injected.machine.output_mixtures == plain.machine.output_mixtures
        assert injected.machine.injector.injected == {}

    def test_empty_plan_on_corpus_assay(self):
        from repro.assays import glucose

        compiled = run_compile(source=glucose.SOURCE).compiled
        plain = run(compiled)
        injected = run(compiled, FaultInjector(FaultPlan.none()))
        assert canonical_trace(injected) == canonical_trace(plain)
        assert injected.results == plain.results


class TestLossFaultTransparency:
    @given(seed=dag_seeds, fault_seed=fault_seeds)
    @settings(max_examples=20, deadline=None)
    def test_recovered_loss_faults_preserve_products(self, seed, fault_seed):
        compiled = build_compiled(seed)
        baseline = run(compiled)
        assume(baseline.succeeded)
        plan = FaultPlan.seeded(fault_seed, 0.10, kinds=LOSS_KINDS)
        faulty = run(compiled, FaultInjector(plan))
        assume(faulty.succeeded)  # bounded recovery may legitimately give up
        # exact equality: concentration vectors, readings, shipped volume
        assert faulty.machine.output_mixtures == baseline.machine.output_mixtures
        assert faulty.machine.output_tally == baseline.machine.output_tally
        assert faulty.results == baseline.results
        # losses cost extra input, never less
        drawn = lambda r: sum(  # noqa: E731
            (b.drawn for b in r.machine.ports.values()), Fraction(0)
        )
        assert drawn(faulty) >= drawn(baseline)
        if faulty.regenerations:
            assert drawn(faulty) > drawn(baseline)

    @given(fault_seed=st.integers(min_value=0, max_value=200))
    @settings(max_examples=15, deadline=None)
    def test_glucose_readings_survive_loss_faults(self, fault_seed):
        from repro.assays import glucose

        compiled = run_compile(source=glucose.SOURCE).compiled
        baseline = run(compiled)
        plan = FaultPlan.seeded(fault_seed, 0.08, kinds=LOSS_KINDS)
        faulty = run(compiled, FaultInjector(plan))
        assume(faulty.succeeded)
        assert faulty.results == baseline.results
