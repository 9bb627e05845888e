"""NOEXCESS fluid declarations (paper Section 3.4.1's escape hatch)."""

import pytest

from repro.compiler.passes import run_compile
from repro.lang.parser import parse
from repro.lang.semantic import analyze
from repro.lang.errors import ParseError

PROTECTED = """\
ASSAY precious
START
fluid drug NOEXCESS, carrier, dose;
dose = MIX drug AND carrier IN RATIOS 1 : 9999 FOR 10;
END
"""

UNPROTECTED = PROTECTED.replace(" NOEXCESS", "")


class TestDeclaration:
    def test_parsed_into_symbol_table(self):
        symbols = analyze(parse(PROTECTED))
        assert symbols.no_excess == {"drug"}
        assert symbols.is_fluid("drug")

    def test_noexcess_on_var_rejected(self):
        with pytest.raises(ParseError):
            parse("ASSAY t\nSTART\nVAR x NOEXCESS;\nEND\n")


class TestVolumeManagementEffect:
    def test_protected_extreme_mix_cannot_cascade(self):
        compiled = run_compile(source=PROTECTED).compiled
        assert compiled.plan.status == "regeneration"
        cascade_attempts = [
            a for a in compiled.plan.attempts if a.stage == "cascade"
        ]
        assert cascade_attempts and not cascade_attempts[0].succeeded
        assert "no-excess" in cascade_attempts[0].detail

    def test_unprotected_version_cascades_fine(self):
        compiled = run_compile(source=UNPROTECTED).compiled
        assert compiled.plan.feasible
        assert compiled.plan.was_transformed

    def test_flag_reaches_the_dag_node(self):
        from repro.ir.builder import build_dag_from_flat
        from repro.lang.unroll import unroll

        dag = build_dag_from_flat(unroll(parse(PROTECTED)))
        assert dag.node("dose").no_excess

    def test_product_flag_also_protects(self):
        source = """\
ASSAY precious2
START
fluid a, b, mixture NOEXCESS;
mixture = MIX a AND b IN RATIOS 1 : 9999 FOR 10;
END
"""
        from repro.ir.builder import build_dag_from_flat
        from repro.lang.unroll import unroll

        dag = build_dag_from_flat(unroll(parse(source)))
        assert dag.node("mixture").no_excess

    def test_unrelated_mixes_unaffected(self):
        source = """\
ASSAY partial
START
fluid drug NOEXCESS, carrier, other, dose, dilute;
dose = MIX drug AND carrier IN RATIOS 1 : 1 FOR 10;
dilute = MIX other AND carrier IN RATIOS 1 : 9999 FOR 10;
END
"""
        compiled = run_compile(source=source).compiled
        # the extreme mix does not touch the protected fluid: it cascades
        assert compiled.plan.feasible
        assert compiled.plan.was_transformed
