"""Executor tests: plan resolution, runtime partitions, regeneration."""

import dataclasses
import gc
import weakref
from fractions import Fraction

import pytest

from repro.compiler.passes import run_compile
from repro.machine.faults import FaultInjector, FaultPlan
from repro.machine.interpreter import Machine
from repro.machine.separation import FractionalYield
from repro.machine.spec import AQUACORE_SPEC
from repro.runtime.executor import AssayExecutor, PlanResolver
from repro.assays import glucose, glycomics


def glucose_machine():
    spec = dataclasses.replace(
        AQUACORE_SPEC,
        extinction_coefficients={"Glucose": Fraction(2), "Sample": Fraction(1)},
    )
    return Machine(spec)


class TestStaticExecution:
    def test_glucose_runs_clean(self):
        compiled = run_compile(source=glucose.SOURCE).compiled
        result = AssayExecutor(compiled, glucose_machine()).run()
        assert result.regenerations == 0
        assert len(result.results) == 5

    def test_glucose_calibration_series(self):
        """OD falls with dilution: 1:1 > 1:2 > 1:4 > 1:8."""
        compiled = run_compile(source=glucose.SOURCE).compiled
        result = AssayExecutor(compiled, glucose_machine()).run()
        readings = [result.results[f"Result[{i}]"] for i in range(1, 5)]
        assert readings == sorted(readings, reverse=True)
        assert float(readings[0]) == pytest.approx(1.0, abs=0.02)

    def test_no_volume_left_unaccounted(self):
        compiled = run_compile(source=glucose.SOURCE).compiled
        executor = AssayExecutor(compiled, glucose_machine())
        result = executor.run()
        machine = result.machine
        drawn = sum(
            (binding.drawn for binding in machine.ports.values()),
            Fraction(0),
        )
        shipped = sum(machine.output_tally.values(), Fraction(0))
        assert (
            machine.total_onchip_volume()
            == drawn - shipped - machine.waste_tally
        )

    def test_input_drawn_is_the_ports_sum_through_regenerations(self):
        """The machine's running total of input draws equals the sum of
        every port's draws, after faulted runs that regenerate."""
        from repro.assays import extra
        from repro.machine.faults import FaultInjector, FaultPlan

        compiled = run_compile(source=extra.PCR_PREP_SOURCE).compiled
        regenerated = 0
        for seed in range(4):
            result = AssayExecutor(
                compiled,
                injector=FaultInjector(FaultPlan.seeded(seed, 0.05)),
                capture_failures=True,
            ).run()
            machine = result.machine
            regenerated += result.regenerations
            assert machine.input_drawn == sum(
                (binding.drawn for binding in machine.ports.values()),
                Fraction(0),
            )
        assert regenerated > 0

    def test_plan_resolver_volumes(self):
        compiled = run_compile(source=glucose.SOURCE).compiled
        resolver = PlanResolver(compiled.assignment)
        moves = [
            i
            for i in compiled.program
            if i.edge is not None
        ]
        for instruction in moves:
            volume = resolver(instruction)
            assert volume == compiled.assignment.edge_volume[instruction.edge]


class TestRuntimeExecution:
    def make_executor(self, yield1=Fraction(1, 2), yield2=Fraction(1, 2), yield3=Fraction(1, 2)):
        compiled = run_compile(source=glycomics.SOURCE).compiled
        machine = Machine(
            AQUACORE_SPEC,
            separation_models={
                "separator1": FractionalYield(yield1),
                # separator2 runs two LC separations; one model serves both
                "separator2": FractionalYield(yield2),
            },
        )
        return compiled, AssayExecutor(compiled, machine)

    def test_glycomics_runs_clean(self):
        __, executor = self.make_executor()
        result = executor.run()
        assert result.regenerations == 0
        assert len(result.measurements) == 3

    def test_partitions_dispensed_lazily(self):
        compiled, executor = self.make_executor()
        result = executor.run()
        session = executor.resolver.session
        assert set(session.assignments) == {0, 1, 2, 3}

    def test_measurements_flow_into_plan(self):
        compiled, executor = self.make_executor(yield1=Fraction(3, 10))
        result = executor.run()
        measured = dict(result.measurements.entries)
        # sep1's feed is 100 nl; at 30% yield the measurement is 30 nl.
        assert measured["effluent"] == 30
        session = executor.resolver.session
        assert session.productions["effluent"] == 30

    def test_low_yield_scales_downstream(self):
        __, generous = self.make_executor(yield1=Fraction(1, 2))
        __, meagre = self.make_executor(yield1=Fraction(1, 100))
        rich = generous.run()
        poor = meagre.run()
        # The second partition's mix must be smaller when sep1 yields less.
        rich_vol = rich.machine.trace  # both ran; compare session scales
        rich_scale = generous.resolver.session.assignments[1].scale
        poor_scale = meagre.resolver.session.assignments[1].scale
        assert poor_scale < rich_scale


def quartered_inputs(assignment):
    """The assignment with the glucose inputs' planned volumes quartered."""
    planned = assignment.node_volume
    return dataclasses.replace(
        assignment,
        node_volume={
            **planned,
            **{
                node: planned[node] / 4
                for node in ("Glucose", "Reagent", "Sample")
            },
        },
    )


class TestRegenerationPath:
    def test_sabotaged_plan_triggers_regeneration(self):
        """Halve every planned input volume: draws must exhaust sources and
        the executor must recover by re-executing backward slices."""
        compiled = run_compile(source=glucose.SOURCE).compiled
        sabotaged = dataclasses.replace(
            compiled, assignment=quartered_inputs(compiled.assignment)
        )
        executor = AssayExecutor(sabotaged, glucose_machine())
        result = executor.run()
        assert result.regenerations > 0
        assert len(result.results) == 5  # still completed

    def test_regeneration_disabled_raises(self):
        from repro.machine.errors import EmptyError

        compiled = run_compile(source=glucose.SOURCE).compiled
        compiled = dataclasses.replace(
            compiled, assignment=quartered_inputs(compiled.assignment)
        )
        executor = AssayExecutor(
            compiled, glucose_machine(), allow_regeneration=False
        )
        with pytest.raises(EmptyError):
            executor.run()


class TestGuards:
    SOURCE = """\
ASSAY guarded
START
fluid a, b;
VAR r;
MIX a AND b IN RATIOS 1 : 1 FOR 10;
SENSE OPTICAL it INTO r;
IF r > 100 THEN
MIX a AND b IN RATIOS 1 : 2 FOR 10;
SENSE OPTICAL it INTO r;
ELSE
MIX a AND b IN RATIOS 1 : 3 FOR 10;
SENSE OPTICAL it INTO r;
ENDIF
END
"""

    def test_untaken_branch_skipped(self):
        compiled = run_compile(source=self.SOURCE).compiled
        machine = Machine(AQUACORE_SPEC)  # OD reads 0 -> r > 100 is False
        machine.bind_port("ip1", "a")
        machine.bind_port("ip2", "b")
        executor = AssayExecutor(compiled, machine)
        result = executor.run()
        assert result.skipped_guarded > 0
        # the else-branch 1:3 mix ran: its mix moves are in the trace
        rendered = result.trace.render()
        assert "move mixer1, s2, 3" in rendered
        assert "move mixer1, s2, 2" not in rendered


class TestNoReferenceCycle:
    """A finished run is freed by reference counting alone.

    A machine that kept bound methods of itself (say, an opcode table)
    would sit in a reference cycle with its trace until the cyclic
    collector ran, and a stress run's peak memory would grow with it.
    """

    @pytest.mark.parametrize(
        "source", [glucose.SOURCE, glycomics.SOURCE], ids=["static", "runtime"]
    )
    def test_machine_and_executor_die_on_del(self, source):
        compiled = run_compile(source=source).compiled
        gc.collect()
        gc.disable()
        try:
            executor = AssayExecutor(
                compiled,
                injector=FaultInjector(FaultPlan.seeded(1, 0.05)),
                capture_failures=True,
            )
            result = executor.run()
            assert result.trace.events
            machine = weakref.ref(executor.machine)
            alive = weakref.ref(executor)
            del executor, result
            assert alive() is None
            assert machine() is None
        finally:
            gc.enable()
