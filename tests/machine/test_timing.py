"""Simulated fluid-path timing tests (the Section 1/2.1 cost model)."""

from fractions import Fraction

import pytest

from repro.ir.instructions import (
    dry_mov,
    incubate,
    input_,
    mix,
    move,
    move_abs,
    sense,
    separate,
)
from repro.machine.interpreter import Machine
from repro.machine.separation import FractionalYield
from repro.machine.spec import AQUACORE_SPEC


@pytest.fixture
def machine():
    m = Machine(AQUACORE_SPEC)
    m.bind_port("ip1", "a")
    return m


class TestPerInstructionCosts:
    def test_transfer_costs_one_second(self, machine):
        machine.execute(input_("s1", "ip1", abs_volume=Fraction(40)))
        assert machine.trace.total_seconds == 1
        machine.execute(move_abs("mixer1", "s1", Fraction(10)))
        assert machine.trace.total_seconds == 2

    def test_mix_costs_its_duration(self, machine):
        machine.execute(input_("s1", "ip1", abs_volume=Fraction(40)))
        machine.execute(move("mixer1", "s1"))
        machine.execute(mix("mixer1", 10))
        assert machine.trace.total_seconds == 1 + 1 + 10

    def test_incubate_costs_its_duration(self, machine):
        machine.execute(input_("s1", "ip1", abs_volume=Fraction(40)))
        machine.execute(move("heater1", "s1"))
        machine.execute(incubate("heater1", 37, 300))
        assert machine.trace.total_seconds == 302

    def test_separation_costs_its_duration(self):
        m = Machine(
            AQUACORE_SPEC,
            separation_models={"separator2": FractionalYield(Fraction(1, 2))},
        )
        m.bind_port("ip1", "a")
        m.execute(input_("s1", "ip1", abs_volume=Fraction(40)))
        m.execute(move("separator2", "s1"))
        m.execute(separate("separator2", "LC", 2400))
        assert m.trace.total_seconds == 1 + 1 + 2400

    def test_dry_instructions_free(self, machine):
        for __ in range(50):
            machine.execute(dry_mov("r0", 1))
        assert machine.trace.total_seconds == 0

    def test_sense_cost(self, machine):
        machine.execute(input_("s1", "ip1", abs_volume=Fraction(40)))
        machine.execute(move("sensor2", "s1"))
        machine.execute(sense("sensor2", "OD", "r"))
        assert (
            machine.trace.total_seconds
            == 2 * AQUACORE_SPEC.transfer_seconds + AQUACORE_SPEC.sense_seconds
        )


class TestAssayTotals:
    def test_glucose_total_time(self):
        """3 inputs + 15 moves + 5x10s mixes + 5 senses = 73 s."""
        import dataclasses

        from repro.compiler.passes import run_compile
        from repro.runtime.executor import AssayExecutor
        from repro.assays import glucose

        compiled = run_compile(source=glucose.SOURCE).compiled
        result = AssayExecutor(compiled, Machine(AQUACORE_SPEC)).run()
        assert result.trace.total_seconds == 3 + 15 + 5 * 10 + 5

    def test_custom_transfer_cost(self):
        import dataclasses

        spec = dataclasses.replace(AQUACORE_SPEC, transfer_seconds=Fraction(5))
        m = Machine(spec)
        m.bind_port("ip1", "a")
        m.execute(input_("s1", "ip1", abs_volume=Fraction(40)))
        assert m.trace.total_seconds == 5
