"""End-to-end compiler-driver tests."""

import pytest

from repro.compiler.passes import run_compile
from repro.core.hierarchy import VolumeManager
from repro.machine.spec import AQUACORE_SPEC
from repro.assays import enzyme, glucose, glycomics, paper_example


class TestStaticCompilation:
    def test_glucose(self):
        compiled = run_compile(source=glucose.SOURCE).compiled
        assert compiled.is_static
        assert compiled.plan.status == "dagsolve"
        assert compiled.assignment is not None
        assert not compiled.needs_regeneration
        assert compiled.planner is None

    def test_assignment_is_rounded(self):
        compiled = run_compile(source=glucose.SOURCE).compiled
        least = compiled.spec.limits.least_count
        for volume in compiled.assignment.edge_volume.values():
            assert (volume / least).denominator == 1

    def test_rounding_note_emitted(self):
        compiled = run_compile(source=glucose.SOURCE).compiled
        codes = {d.code for d in compiled.diagnostics}
        assert "rounding-error" in codes

    def test_enzyme_transform_notes(self):
        compiled = run_compile(source=enzyme.SOURCE).compiled
        codes = [d.code for d in compiled.diagnostics]
        assert codes.count("transform") >= 3  # the three 1:999 cascades
        assert compiled.final_dag.node_count > compiled.dag.node_count

    def test_custom_manager_respected(self):
        manager = VolumeManager(
            AQUACORE_SPEC.limits,
            allow_cascading=False,
            allow_replication=False,
        )
        compiled = run_compile(source=enzyme.SOURCE, manager=manager).compiled
        assert compiled.needs_regeneration
        codes = {d.code for d in compiled.diagnostics}
        assert "regeneration-fallback" in codes


class TestRuntimeCompilation:
    def test_glycomics(self):
        compiled = run_compile(source=glycomics.SOURCE).compiled
        assert not compiled.is_static
        assert compiled.planner.n_partitions == 4
        assert compiled.assignment is None

    def test_underflow_risk_warning(self):
        compiled = run_compile(source=glycomics.SOURCE).compiled
        warnings = [d for d in compiled.diagnostics if d.code == "underflow-risk"]
        assert len(warnings) == 1  # the X2 = 1/204 constrained input

    def test_yield_hints_make_assay_static(self):
        source = glycomics.SOURCE.replace(
            "SEPARATE it MATRIX lectin USING buffer1b FOR 30",
            "SEPARATE it MATRIX lectin USING buffer1b YIELD 1 : 2 FOR 30",
        ).replace(
            "LCSEPARATE it MATRIX C_18 USING buffer3b FOR 30",
            "LCSEPARATE it MATRIX C_18 USING buffer3b YIELD 1 : 2 FOR 30",
        ).replace(
            "LCSEPARATE it MATRIX C_18 USING buffer3b FOR 2400",
            "LCSEPARATE it MATRIX C_18 USING buffer3b YIELD 1 : 2 FOR 2400",
        )
        compiled = run_compile(source=source).compiled
        assert compiled.is_static  # hints removed all unknown volumes


class TestCompileDag:
    def test_hand_built_dag(self, fig2_dag):
        compiled = run_compile(dag=fig2_dag).compiled
        assert compiled.is_static
        assert compiled.listing().startswith("figure2{")

    def test_listing_contains_ratio_moves(self, fig2_dag):
        listing = run_compile(dag=fig2_dag).compiled.listing()
        assert "move mixer1, s2, 4" in listing  # B's share of the 1:4 mix


class TestFigure9Listing:
    def test_glucose_matches_paper_shape(self):
        """Figure 9(b): same instruction multiset (modulo column layout)."""
        listing = run_compile(source=glucose.SOURCE).compiled.listing()
        for line in (
            "input s1, ip1 ;Glucose",
            "input s2, ip2 ;Reagent",
            "input s3, ip3 ;Sample",
            "move mixer1, s1, 1",
            "move mixer1, s2, 2",
            "move mixer1, s2, 4",
            "move mixer1, s2, 8",
            "move mixer1, s3, 1",
            "mix mixer1, 10",
            "move sensor2, mixer1",
            "sense.OD sensor2, Result[5]",
        ):
            assert line in listing, line

    def test_glucose_instruction_count_close_to_paper(self):
        """Figure 9(b) lists 28 instructions (3 inputs + 5 x 5)."""
        program = run_compile(source=glucose.SOURCE).compiled.program
        assert len(program) == 28
