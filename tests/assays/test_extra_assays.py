"""The extra realistic assays: compile, plan, execute."""

import dataclasses
from fractions import Fraction

import pytest

from repro.compiler.passes import run_compile
from repro.core.dagsolve import compute_vnorms
from repro.machine.interpreter import Machine
from repro.machine.separation import SpeciesFilter
from repro.machine.spec import AQUACORE_SPEC
from repro.runtime.executor import AssayExecutor
from repro.assays import extra


class TestElisa:
    def test_static_thanks_to_yield_hints(self):
        compiled = run_compile(source=extra.ELISA_SOURCE).compiled
        assert compiled.is_static
        assert compiled.plan.status == "dagsolve"

    def test_executes_with_species_filter(self):
        compiled = run_compile(source=extra.ELISA_SOURCE).compiled
        spec = dataclasses.replace(
            AQUACORE_SPEC,
            extinction_coefficients={"sample": Fraction(4)},
        )
        machine = Machine(
            spec,
            separation_models={
                "separator1": SpeciesFilter(
                    ["sample", "conjugate"], recovery=Fraction(3, 5)
                ),
            },
        )
        result = AssayExecutor(compiled, machine).run()
        assert result.regenerations == 0
        assert set(result.results) == {
            "Reading[1]",
            "Reading[2]",
            "Reading[3]",
        }

    def test_kinetic_reads_identical_without_chemistry_model(self):
        """Our machine does not model enzymatic development, so the three
        kinetic reads see the same composition — a documented fidelity
        boundary, pinned here."""
        compiled = run_compile(source=extra.ELISA_SOURCE).compiled
        machine = Machine(AQUACORE_SPEC)
        result = AssayExecutor(compiled, machine).run()
        readings = [result.results[f"Reading[{i}]"] for i in (1, 2, 3)]
        assert readings[0] == readings[1] == readings[2]


class TestBradford:
    def test_lp_rescues_the_dye_sharing(self):
        """Six 1:50 dye reactions defeat DAGSolve's equal-output constraint
        (the standards' minor shares underflow) but LP balances them."""
        compiled = run_compile(source=extra.BRADFORD_SOURCE).compiled
        assert compiled.plan.status == "lp"
        assert compiled.assignment.feasible

    def test_dye_is_the_heavy_reagent(self):
        dag = extra.build_bradford_dag()
        vnorms = compute_vnorms(dag)
        heaviest = max(vnorms.node_vnorm, key=vnorms.node_vnorm.get)
        assert heaviest == "dye"

    def test_compiled_matches_hand_dag(self):
        from repro.ir.builder import build_dag_from_flat
        from repro.lang.parser import parse
        from repro.lang.unroll import unroll

        compiled_dag = build_dag_from_flat(
            unroll(parse(extra.BRADFORD_SOURCE))
        )
        reference = extra.build_bradford_dag()
        got = compute_vnorms(compiled_dag).node_vnorm
        expected = compute_vnorms(reference).node_vnorm
        assert got["dye"] == expected["dye"]
        assert got["standard[5]"] == expected["standard[5]"]

    def test_standard_curve_monotone(self):
        compiled = run_compile(source=extra.BRADFORD_SOURCE).compiled
        spec = dataclasses.replace(
            AQUACORE_SPEC,
            extinction_coefficients={
                "bsa": Fraction(100),
                "unknown": Fraction(30),
            },
        )
        result = AssayExecutor(compiled, Machine(spec)).run()
        curve = [float(result.results[f"Curve[{i}]"]) for i in range(1, 6)]
        assert curve == sorted(curve, reverse=True)
        assert result.regenerations == 0


class TestPcrPrep:
    def test_compiles_and_runs(self):
        compiled = run_compile(source=extra.PCR_PREP_SOURCE).compiled
        assert compiled.assignment.feasible
        spec = dataclasses.replace(
            AQUACORE_SPEC,
            extinction_coefficients={"template": Fraction(1000)},
        )
        result = AssayExecutor(compiled, Machine(spec)).run()
        assert result.regenerations == 0
        assert len(result.results) == 3

    def test_master_mix_used_three_times(self):
        from repro.ir.builder import build_dag_from_flat
        from repro.lang.parser import parse
        from repro.lang.unroll import unroll

        dag = build_dag_from_flat(unroll(parse(extra.PCR_PREP_SOURCE)))
        assert dag.out_degree("master") == 3

    def test_template_dilution_series(self):
        from repro.ir.builder import build_dag_from_flat
        from repro.lang.parser import parse
        from repro.lang.unroll import unroll

        dag = build_dag_from_flat(unroll(parse(extra.PCR_PREP_SOURCE)))
        ratios = [
            dag.node(f"dilution[{i}]").ratio for i in range(1, 4)
        ]
        assert ratios == [(1, 9), (1, 99), (1, 999)]

    def test_fluorescence_sensor_used(self):
        compiled = run_compile(source=extra.PCR_PREP_SOURCE).compiled
        listing = compiled.listing()
        assert "sense.FL sensor1" in listing
