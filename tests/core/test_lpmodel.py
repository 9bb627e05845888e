"""LP constraint-system tests (paper Section 3.2, Figure 3)."""

from fractions import Fraction

import numpy as np
import pytest

from repro.core.dag import AssayDAG, NodeKind
from repro.core.errors import DagError
from repro.core.lpmodel import (
    CLASS_CAPACITY,
    CLASS_FLOW_CONSERVATION,
    CLASS_MIN_VOLUME,
    CLASS_NON_DEFICIT,
    CLASS_OUTPUT_EQUAL,
    CLASS_OUTPUT_TO_OUTPUT,
    CLASS_RATIO,
    build_lp_model,
)


class TestFigure3Structure:
    """The constraint classes of Figure 3, generated for the Figure 2 DAG."""

    def test_variable_per_edge(self, fig2_dag, limits):
        model = build_lp_model(fig2_dag, limits)
        assert model.n_variables == fig2_dag.edge_count == 8

    def test_min_volume_constraints_one_per_edge(self, fig2_dag, limits):
        model = build_lp_model(fig2_dag, limits)
        counts = model.counts_by_class()
        assert counts[CLASS_MIN_VOLUME] == 8
        assert all(lo == float(limits.least_count) for lo, __ in model.bounds)

    def test_capacity_constraints_one_per_node(self, fig2_dag, limits):
        model = build_lp_model(fig2_dag, limits)
        # A, B, C (draw side) and K, L, M, N (input side): 7 rows.
        assert model.counts_by_class()[CLASS_CAPACITY] == 7

    def test_non_deficit_for_intermediates_only(self, fig2_dag, limits):
        model = build_lp_model(fig2_dag, limits)
        # K and L are the only internal non-output nodes.
        assert model.counts_by_class()[CLASS_NON_DEFICIT] == 2

    def test_ratio_constraints_one_per_two_way_mix(self, fig2_dag, limits):
        model = build_lp_model(fig2_dag, limits)
        assert model.counts_by_class()[CLASS_RATIO] == 4

    def test_output_to_output_two_rows_per_extra_output(self, fig2_dag, limits):
        model = build_lp_model(fig2_dag, limits)
        assert model.counts_by_class()[CLASS_OUTPUT_TO_OUTPUT] == 2

    def test_output_tolerance_none_omits_class(self, fig2_dag, limits):
        model = build_lp_model(fig2_dag, limits, output_tolerance=None)
        assert CLASS_OUTPUT_TO_OUTPUT not in model.counts_by_class()

    def test_objective_maximises_outputs(self, fig2_dag, limits):
        model = build_lp_model(fig2_dag, limits)
        # HiGHS minimises, so output-edge coefficients are -1.
        output_edges = {("K", "M"), ("L", "M"), ("L", "N"), ("C", "N")}
        for key, column in model.var_index.items():
            expected = -1.0 if key in output_edges else 0.0
            assert model.objective[column] == expected, key

    def test_total_count_matches_paper_accounting(self, fig2_dag, limits):
        model = build_lp_model(fig2_dag, limits)
        assert model.n_constraints == sum(model.counts_by_class().values())


class TestRatioRows:
    def test_ratio_row_encodes_proportion(self, limits):
        dag = AssayDAG()
        dag.add_input("A")
        dag.add_input("B")
        dag.add_mix("M", {"A": 1, "B": 4})
        model = build_lp_model(dag, limits, output_tolerance=None)
        (ratio_row,) = [
            i for i, row in enumerate(model.rows_eq) if row.cls == CLASS_RATIO
        ]
        a_col = model.var_index[("A", "M")]
        b_col = model.var_index[("B", "M")]
        dense = model.a_eq.toarray()
        # fraction_B * vol_A - fraction_A * vol_B == 0 (up to overall sign)
        coeff_a = dense[ratio_row, a_col]
        coeff_b = dense[ratio_row, b_col]
        assert coeff_a == pytest.approx(-4 * coeff_b)

    def test_three_way_mix_emits_two_rows(self, limits):
        dag = AssayDAG()
        for name in "ABC":
            dag.add_input(name)
        dag.add_mix("M", {"A": 1, "B": 100, "C": 1})
        model = build_lp_model(dag, limits, output_tolerance=None)
        assert model.counts_by_class()[CLASS_RATIO] == 2


class TestDagsolveConstraintsAblation:
    def test_extra_classes_present(self, fig2_dag, limits):
        model = build_lp_model(fig2_dag, limits, dagsolve_constraints=True)
        counts = model.counts_by_class()
        assert counts[CLASS_FLOW_CONSERVATION] == 2  # K and L
        assert counts[CLASS_OUTPUT_EQUAL] == 1       # N pinned to M

    def test_absent_by_default(self, fig2_dag, limits):
        counts = build_lp_model(fig2_dag, limits).counts_by_class()
        assert CLASS_FLOW_CONSERVATION not in counts
        assert CLASS_OUTPUT_EQUAL not in counts


class TestSeparatorsAndExcess:
    def test_output_fraction_in_non_deficit(self, limits):
        dag = AssayDAG()
        dag.add_input("A")
        dag.add_unary(
            "S", "A", kind=NodeKind.SEPARATE, output_fraction=Fraction(3, 10)
        )
        dag.add_unary("H", "S")
        model = build_lp_model(dag, limits, output_tolerance=None)
        (row_index,) = [
            i
            for i, row in enumerate(model.rows_ub)
            if row.cls == CLASS_NON_DEFICIT
        ]
        dense = model.a_ub.toarray()
        in_col = model.var_index[("A", "S")]
        out_col = model.var_index[("S", "H")]
        assert dense[row_index, out_col] == 1.0
        assert dense[row_index, in_col] == pytest.approx(-0.3)

    def test_unknown_volume_with_uses_rejected(self, limits):
        dag = AssayDAG()
        dag.add_input("A")
        dag.add_unary("S", "A", kind=NodeKind.SEPARATE, unknown_volume=True)
        dag.add_unary("H", "S")
        with pytest.raises(DagError):
            build_lp_model(dag, limits)

    def test_excess_edges_not_variables(self, limits):
        from repro.core.cascading import cascade_mix, stage_factors

        dag = AssayDAG()
        dag.add_input("A")
        dag.add_input("B")
        dag.add_mix("M", {"A": 1, "B": 99})
        cascaded, __ = cascade_mix(dag, "M", stage_factors(Fraction(100), 2))
        model = build_lp_model(cascaded, limits)
        for key in model.var_index:
            assert not cascaded.edge(*key).is_excess

    def test_sparse_matrices(self, enzyme_dag, limits):
        model = build_lp_model(enzyme_dag, limits)
        from scipy import sparse

        assert sparse.issparse(model.a_ub)
        assert sparse.issparse(model.a_eq)
        assert model.a_ub.shape[1] == model.n_variables


class TestConstraintGrowth:
    """Table 2's constraint column: counts grow with assay size."""

    def test_glucose_vs_enzyme(self, glucose_dag, enzyme_dag, limits):
        small = build_lp_model(glucose_dag, limits).n_constraints
        large = build_lp_model(enzyme_dag, limits).n_constraints
        assert small < large

    def test_enzyme_scaling(self, limits):
        from repro.assays import enzyme

        counts = [
            build_lp_model(enzyme.build_dag(n), limits).n_constraints
            for n in (2, 3, 4)
        ]
        assert counts[0] < counts[1] < counts[2]
