"""DAGSolve tests, anchored on the paper's worked examples.

The Figure 5 example is checked *exactly* (Vnorms as fractions, volumes as
exact rationals) — DAGSolve is deterministic rational arithmetic, so there
is no tolerance anywhere in this file.
"""

import dataclasses
from fractions import Fraction

import pytest

from repro.assays import glucose, paper_example
from repro.core.dag import AssayDAG, NodeKind
from repro.core.dagsolve import (
    compute_vnorms,
    dagsolve,
    dispense,
    scale_for_required_outputs,
)
from repro.core.errors import DagError, OverflowError_, UnderflowError, VolumeError
from repro.core.limits import PAPER_LIMITS, HardwareLimits


class TestFigure5:
    """Paper Figure 5: the worked DAGSolve example."""

    def test_node_vnorms_exact(self, fig2_dag):
        vnorms = compute_vnorms(fig2_dag)
        assert vnorms.node_vnorm == paper_example.EXPECTED_VNORMS

    def test_edge_vnorms_exact(self, fig2_dag):
        vnorms = compute_vnorms(fig2_dag)
        for key, expected in paper_example.EXPECTED_EDGE_VNORMS.items():
            assert vnorms.edge_vnorm[key] == expected, key

    def test_max_vnorm_is_b(self, fig2_dag):
        assert compute_vnorms(fig2_dag).max_vnorm() == Fraction(46, 45)

    def test_dispensed_volumes_exact(self, fig2_dag, limits):
        assignment = dagsolve(fig2_dag, limits)
        for node, expected in paper_example.EXPECTED_VOLUMES.items():
            assert assignment.node_volume[node] == expected, node

    def test_paper_rounded_figures(self, fig2_dag, limits):
        """The integers the paper prints in Figure 5(b)."""
        assignment = dagsolve(fig2_dag, limits)
        rounded = {
            key: round(float(volume))
            for key, volume in assignment.edge_volume.items()
        }
        assert rounded[("B", "K")] == 52
        assert rounded[("B", "L")] == 48
        assert rounded[("C", "L")] == 24
        assert rounded[("C", "N")] == 59
        assert round(float(assignment.node_volume["A"])) == 13
        assert round(float(assignment.node_volume["K"])) == 65

    def test_feasible(self, fig2_dag, limits):
        assert dagsolve(fig2_dag, limits).feasible


class TestBackwardPassSemantics:
    def test_outputs_normalised_to_one(self, fig2_dag):
        vnorms = compute_vnorms(fig2_dag)
        assert vnorms.node_vnorm["M"] == 1
        assert vnorms.node_vnorm["N"] == 1

    def test_flow_conservation_at_intermediates(self, fig2_dag):
        vnorms = compute_vnorms(fig2_dag)
        for node in fig2_dag.nodes():
            outbound = fig2_dag.out_edges(node.id)
            if not outbound:
                continue
            used = sum(vnorms.edge_vnorm[e.key] for e in outbound)
            assert vnorms.node_vnorm[node.id] == used

    def test_custom_output_targets(self, fig2_dag):
        vnorms = compute_vnorms(fig2_dag, {"M": 2, "N": 1})
        assert vnorms.node_vnorm["M"] == 2
        # K feeds only M: its Vnorm doubles with M's target.
        assert vnorms.node_vnorm["K"] == Fraction(4, 3)

    def test_output_target_for_non_output_rejected(self, fig2_dag):
        with pytest.raises(DagError):
            compute_vnorms(fig2_dag, {"K": 1})

    def test_nonpositive_target_rejected(self, fig2_dag):
        with pytest.raises(VolumeError):
            compute_vnorms(fig2_dag, {"M": 0})

    def test_unknown_volume_with_uses_rejected(self):
        dag = AssayDAG()
        dag.add_input("A")
        dag.add_unary("S", "A", kind=NodeKind.SEPARATE, unknown_volume=True)
        dag.add_unary("H", "S")
        with pytest.raises(DagError):
            compute_vnorms(dag)

    def test_unknown_volume_sink_allowed(self):
        dag = AssayDAG()
        dag.add_input("A")
        dag.add_unary("S", "A", kind=NodeKind.SEPARATE, unknown_volume=True)
        vnorms = compute_vnorms(dag)
        # The separator's *input* side is normalised.
        assert vnorms.node_input_vnorm["S"] == 1

    def test_linear_visit_counts(self, enzyme_dag):
        vnorms = compute_vnorms(enzyme_dag)
        non_excess_nodes = sum(
            1 for n in enzyme_dag.nodes() if n.kind is not NodeKind.EXCESS
        )
        assert vnorms.nodes_visited == non_excess_nodes
        # every edge contributes exactly twice (once from each endpoint)
        assert vnorms.edges_visited == 2 * enzyme_dag.edge_count

    def test_separator_output_fraction(self):
        dag = AssayDAG()
        dag.add_input("A")
        dag.add_unary(
            "S", "A", kind=NodeKind.SEPARATE, output_fraction=Fraction(1, 4)
        )
        dag.add_unary("H", "S")
        vnorms = compute_vnorms(dag)
        assert vnorms.node_vnorm["S"] == 1
        # producing 1 unit requires 4 units of input
        assert vnorms.node_input_vnorm["S"] == 4
        assert vnorms.edge_vnorm[("A", "S")] == 4


class TestDispense:
    def test_max_node_pinned_to_capacity(self, fig2_dag, limits):
        assignment = dagsolve(fig2_dag, limits)
        assert assignment.max_node_volume() == limits.max_capacity

    def test_scale_is_uniform(self, fig2_dag, limits):
        assignment = dagsolve(fig2_dag, limits)
        vnorms = assignment.vnorms
        for node, volume in assignment.node_volume.items():
            assert volume == vnorms.node_vnorm[node] * assignment.scale

    def test_per_node_capacity_override(self, fig2_dag, limits):
        fig2_dag.node("B").capacity = Fraction(50)
        assignment = dagsolve(fig2_dag, limits)
        assert assignment.node_volume["B"] == 50

    def test_capacity_respected_for_separator_input_side(self, limits):
        dag = AssayDAG()
        dag.add_input("A")
        dag.add_unary(
            "S", "A", kind=NodeKind.SEPARATE, output_fraction=Fraction(1, 4)
        )
        dag.add_unary("H", "S")
        assignment = dagsolve(dag, limits)
        # The separator's load (input side) must not exceed capacity even
        # though its production Vnorm is 4x smaller.
        assert assignment.node_input_volume["S"] <= limits.max_capacity
        assert assignment.node_input_volume["S"] == limits.max_capacity

    def test_constrained_input_caps_scale(self, limits):
        dag = AssayDAG()
        dag.add_node(
            __import__("repro.core.dag", fromlist=["Node"]).Node(
                "X", NodeKind.CONSTRAINED_INPUT, available_volume=Fraction(10)
            )
        )
        dag.add_input("B")
        dag.add_mix("M", {"X": 1, "B": 1})
        assignment = dagsolve(dag, limits)
        assert assignment.edge_volume[("X", "M")] == 10
        assert assignment.node_volume["M"] == 20

    def test_unmeasured_constrained_input_rejected(self, limits):
        from repro.core.dag import Node

        dag = AssayDAG()
        dag.add_node(Node("X", NodeKind.CONSTRAINED_INPUT))
        dag.add_input("B")
        dag.add_mix("M", {"X": 1, "B": 1})
        with pytest.raises(DagError):
            dagsolve(dag, limits)


class TestViolations:
    def test_underflow_detected(self):
        limits = HardwareLimits(max_capacity=100, least_count=1)
        dag = AssayDAG()
        dag.add_input("A")
        dag.add_input("B")
        dag.add_mix("M", {"A": 1, "B": 399})
        assignment = dagsolve(dag, limits)
        assert not assignment.feasible
        kinds = {v.kind for v in assignment.violations()}
        assert kinds == {"underflow"}
        with pytest.raises(UnderflowError):
            assignment.require_feasible()

    def test_strict_mode_raises(self):
        limits = HardwareLimits(max_capacity=100, least_count=1)
        dag = AssayDAG()
        dag.add_input("A")
        dag.add_input("B")
        dag.add_mix("M", {"A": 1, "B": 399})
        with pytest.raises(UnderflowError):
            dagsolve(dag, limits, strict=True)

    def test_min_edge_reports_smallest(self, glucose_dag, limits):
        assignment = dagsolve(glucose_dag, limits)
        key, volume = assignment.min_edge()
        assert (key, volume) == glucose.EXPECTED_MIN_EDGE

    def test_fu_minimum_volume_violation(self, limits):
        dag = AssayDAG()
        dag.add_input("A")
        dag.add_input("B")
        dag.add_mix("M", {"A": 1, "B": 1}, min_volume=Fraction(150))
        assignment = dagsolve(dag, limits)
        assert any(v.kind == "min-volume" for v in assignment.violations())

    def test_overflow_error_type(self, fig2_dag, limits):
        assignment = dagsolve(fig2_dag, limits)
        # Fabricate an overflow to check the error mapping.  DAGSolve's
        # tables are read-only views, so the fabricated assignment gets
        # new dicts (and with them the Fraction path of the checks).
        assignment = dataclasses.replace(
            assignment,
            node_volume={**assignment.node_volume, "B": Fraction(1000)},
            node_input_volume={
                **assignment.node_input_volume,
                "B": Fraction(1000),
            },
        )
        with pytest.raises(OverflowError_):
            assignment.require_feasible()


class TestRequiredOutputs:
    def test_scales_to_meet_requirement(self, fig2_dag, limits):
        vnorms = compute_vnorms(fig2_dag)
        assignment = scale_for_required_outputs(
            fig2_dag, vnorms, limits, {"M": Fraction(10)}
        )
        assert assignment.node_volume["M"] == 10
        assert assignment.node_volume["N"] == 10  # same Vnorm, same scale

    def test_requirement_above_capacity_overflows(self, fig2_dag, limits):
        vnorms = compute_vnorms(fig2_dag)
        assignment = scale_for_required_outputs(
            fig2_dag, vnorms, limits, {"M": Fraction(200)}
        )
        assert any(v.kind == "overflow" for v in assignment.violations())

    def test_non_output_rejected(self, fig2_dag, limits):
        vnorms = compute_vnorms(fig2_dag)
        with pytest.raises(DagError):
            scale_for_required_outputs(fig2_dag, vnorms, limits, {"K": 1})

    def test_empty_requirements_rejected(self, fig2_dag, limits):
        vnorms = compute_vnorms(fig2_dag)
        with pytest.raises(VolumeError):
            scale_for_required_outputs(fig2_dag, vnorms, limits, {})


class TestGlucoseFigure12:
    def test_vnorms(self, glucose_dag):
        vnorms = compute_vnorms(glucose_dag)
        for node, expected in glucose.EXPECTED_VNORMS.items():
            assert vnorms.node_vnorm[node] == expected, node

    def test_min_dispense_is_3_3_nl(self, glucose_dag, limits):
        assignment = dagsolve(glucose_dag, limits)
        key, volume = assignment.min_edge()
        assert key == ("Glucose", "d")
        assert volume == Fraction(500, 151)
        assert round(float(volume), 1) == 3.3

    def test_no_underflow_no_overflow(self, glucose_dag, limits):
        assert dagsolve(glucose_dag, limits).violations() == []
