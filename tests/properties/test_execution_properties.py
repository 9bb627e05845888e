"""Property-based end-to-end tests: compile random assays, execute them,
and check conservation and plan/execution agreement."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.passes import run_compile
from repro.machine.interpreter import Machine
from repro.machine.spec import AQUACORE_XL_SPEC
from repro.runtime.executor import AssayExecutor
from repro.assays import generators

dag_seeds = st.integers(min_value=0, max_value=3_000)


def build(seed):
    return generators.layered_random_dag(
        4, 3, 2, seed=seed, max_ratio=9
    )


def execute(seed):
    dag = build(seed)
    compiled = run_compile(dag=dag, spec=AQUACORE_XL_SPEC).compiled
    machine = Machine(AQUACORE_XL_SPEC)
    executor = AssayExecutor(compiled, machine)
    return compiled, executor.run()


class TestEndToEndProperties:
    @given(seed=dag_seeds)
    @settings(max_examples=25, deadline=None)
    def test_no_regenerations_with_feasible_plan(self, seed):
        compiled, result = execute(seed)
        if compiled.plan.feasible:
            assert result.regenerations == 0

    @given(seed=dag_seeds)
    @settings(max_examples=25, deadline=None)
    def test_volume_conservation(self, seed):
        __, result = execute(seed)
        machine = result.machine
        drawn = sum(
            (binding.drawn for binding in machine.ports.values()),
            Fraction(0),
        )
        shipped = sum(machine.output_tally.values(), Fraction(0))
        onchip = machine.total_onchip_volume()
        assert onchip == drawn - shipped - machine.waste_tally

    @given(seed=dag_seeds)
    @settings(max_examples=25, deadline=None)
    def test_input_draws_match_plan(self, seed):
        compiled, result = execute(seed)
        if not compiled.plan.feasible:
            return
        plan = compiled.assignment
        for binding in result.machine.ports.values():
            node_id = binding.species
            if node_id in plan.node_volume:
                assert binding.drawn == plan.node_volume[node_id]

    @given(seed=dag_seeds)
    @settings(max_examples=25, deadline=None)
    def test_all_moves_at_least_the_least_count(self, seed):
        compiled, result = execute(seed)
        least = AQUACORE_XL_SPEC.limits.least_count
        for event in result.trace.events:
            if event.opcode in ("move", "move-abs") and event.volume:
                assert event.volume >= least
