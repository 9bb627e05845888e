"""Run-time WHILE semantics: the serial-dilution-until-threshold pattern.

A dynamic WHILE (condition reads a sensed value) is provisioned for all
HINT iterations (paper Section 3.5, option 1 — conservative volume) but
executes only until the condition turns false on chip, via the same guard
machinery as dynamic IF.
"""

import dataclasses
from fractions import Fraction

import pytest

from repro.compiler.passes import run_compile
from repro.machine.interpreter import Machine
from repro.machine.spec import AQUACORE_SPEC
from repro.runtime.executor import AssayExecutor

SOURCE = """\
ASSAY dilute_until
START
fluid stock, diluent;
VAR od;
MIX stock AND diluent IN RATIOS 1 : 1 FOR 10;
SENSE OPTICAL it INTO od;
WHILE od > 25 HINT 6 START
MIX it AND diluent IN RATIOS 1 : 1 FOR 10;
SENSE OPTICAL it INTO od;
ENDWHILE
END
"""


def machine_with_stock_od(coefficient):
    spec = dataclasses.replace(
        AQUACORE_SPEC,
        extinction_coefficients={"stock": Fraction(coefficient)},
    )
    return Machine(spec)


class TestDynamicWhile:
    def test_loop_stops_when_condition_clears(self):
        """OD starts at 50 (stock coeff 100, half concentration) and halves
        per dilution: 50 -> 25 stops the loop after exactly one iteration."""
        compiled = run_compile(source=SOURCE).compiled
        result = AssayExecutor(compiled, machine_with_stock_od(100)).run()
        mixes = [e for e in result.trace.events if e.opcode == "mix"]
        # initial mix + 1 in-loop dilution (50 -> 25, then 25 > 25 is False)
        assert len(mixes) == 2
        assert float(result.results["od"]) == 25.0
        assert result.skipped_guarded > 0

    def test_loop_runs_longer_with_stronger_stock(self):
        """OD 200 halves as 100, 50, 25: three in-loop dilutions."""
        compiled = run_compile(source=SOURCE).compiled
        result = AssayExecutor(compiled, machine_with_stock_od(400)).run()
        mixes = [e for e in result.trace.events if e.opcode == "mix"]
        assert len(mixes) == 1 + 3
        # least-count rounding perturbs the 1:1 draws slightly (~1%)
        assert float(result.results["od"]) == pytest.approx(25.0, rel=0.02)

    def test_hint_bounds_the_loop(self):
        """A stock so strong the threshold is never reached runs all HINT
        iterations and no more."""
        compiled = run_compile(source=SOURCE).compiled
        result = AssayExecutor(
            compiled, machine_with_stock_od(100000)
        ).run()
        mixes = [e for e in result.trace.events if e.opcode == "mix"]
        assert len(mixes) == 1 + 6

    def test_all_iterations_provisioned(self):
        """The volume plan covers the worst case: 7 mixes' worth of
        diluent is planned even when fewer run."""
        compiled = run_compile(source=SOURCE).compiled
        planned_mixes = [
            n
            for n in compiled.final_dag.nodes()
            if n.kind.value == "mix"
        ]
        assert len(planned_mixes) == 7

    def test_nested_dynamic_loops_rejected(self):
        from repro.lang.errors import SemanticError

        nested = SOURCE.replace(
            "ENDWHILE",
            "WHILE od > 1 HINT 2 START\nMIX it AND diluent FOR 5;\nENDWHILE\nENDWHILE",
        )
        with pytest.raises(SemanticError):
            run_compile(source=nested)
