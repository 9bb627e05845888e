"""Plan certification: a correct plan passes; each corruption is caught.

The acceptance bar for the verifier is asymmetric: the compiler's own
output must certify with zero errors, while a deliberately corrupted
plan — a single dispensed volume off by one least count, a broken ratio,
an overdrawn budget — must fail with the *correct* stable PLAN-* code.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from repro.analysis.certify import certify_plan
from repro.assays import glucose
from repro.compiler.passes import run_compile
from repro.core.dag import AssayDAG, Edge, Node, NodeKind
from repro.core.limits import PAPER_LIMITS


def _codes(diagnostics):
    return [d.code for d in diagnostics]


def _errors(diagnostics):
    return [d.code for d in diagnostics if d.severity.value == "error"]


def _glucose():
    return run_compile(source=glucose.SOURCE).compiled


def _mix_dag(**mix_kwargs) -> AssayDAG:
    """A, B --(1:1)--> M, with M the delivered output."""
    dag = AssayDAG("mini")
    dag.add_node(Node("A", NodeKind.INPUT))
    dag.add_node(Node("B", NodeKind.INPUT))
    dag.add_node(Node("M", NodeKind.MIX, ratio=(1, 1), **mix_kwargs))
    dag.add_edge(Edge("A", "M", Fraction(1, 2)))
    dag.add_edge(Edge("B", "M", Fraction(1, 2)))
    return dag


def _mix_assignment(a=Fraction(20), b=Fraction(20), tolerance=0):
    total = a + b
    return SimpleNamespace(
        node_volume={"A": a, "B": b, "M": total},
        node_input_volume={"A": a, "B": b, "M": total},
        edge_volume={("A", "M"): a, ("B", "M"): b},
        tolerance=tolerance,
    )


def _excess_dag(no_excess=False) -> AssayDAG:
    """A --> C (discards half) --> D, with E the excess sink."""
    dag = AssayDAG("excess")
    dag.add_node(Node("A", NodeKind.INPUT))
    dag.add_node(
        Node("C", NodeKind.MIX, ratio=(1,), excess_fraction=Fraction(1, 2),
             no_excess=no_excess)
    )
    dag.add_node(Node("D", NodeKind.HEAT))
    dag.add_node(Node("E", NodeKind.EXCESS))
    dag.add_edge(Edge("A", "C", Fraction(1)))
    dag.add_edge(Edge("C", "D", Fraction(1)))
    dag.add_edge(Edge("C", "E", Fraction(1), is_excess=True))
    return dag


def _excess_assignment(excess=Fraction(20), stored=None):
    return SimpleNamespace(
        node_volume={
            "A": Fraction(40),
            "C": Fraction(40),
            "D": Fraction(20),
            "E": Fraction(20) if stored is None else stored,
        },
        node_input_volume={
            "A": Fraction(40),
            "C": Fraction(40),
            "D": Fraction(20),
            "E": Fraction(20) if stored is None else stored,
        },
        edge_volume={
            ("A", "C"): Fraction(40),
            ("C", "D"): Fraction(20),
            ("C", "E"): excess,
        },
        tolerance=0,
    )


class TestCleanPlans:
    def test_glucose_plan_certifies(self):
        compiled = _glucose()
        diagnostics, metrics = certify_plan(
            compiled.final_dag, compiled.assignment, compiled.spec.limits
        )
        assert not _errors(diagnostics), [str(d) for d in diagnostics]
        assert metrics["loaded_nl"] > 0
        assert metrics["delivered_nl"] > 0

    def test_waste_note_and_metrics(self):
        compiled = _glucose()
        diagnostics, metrics = certify_plan(
            compiled.final_dag, compiled.assignment, compiled.spec.limits
        )
        assert "PLAN-WASTE" in _codes(diagnostics)
        assert 0 < metrics["bound_attainment"]
        assert 0 < metrics["utilisation"] <= 1

    def test_hand_built_mix_certifies(self):
        diagnostics, _ = certify_plan(
            _mix_dag(), _mix_assignment(), PAPER_LIMITS
        )
        assert not _errors(diagnostics)

    def test_excess_accounting_certifies(self):
        diagnostics, _ = certify_plan(
            _excess_dag(), _excess_assignment(), PAPER_LIMITS
        )
        assert not _errors(diagnostics), [str(d) for d in diagnostics]


class TestSingleLeastCountPerturbation:
    """The headline acceptance criterion: one least count is enough."""

    @pytest.mark.parametrize("direction", [1, -1], ids=["up", "down"])
    def test_perturbed_edge_caught(self, direction):
        compiled = _glucose()
        assignment = compiled.assignment
        least = compiled.spec.limits.least_count
        edge = next(
            e
            for e in compiled.final_dag.edges()
            if not e.is_excess and assignment.edge_volume[e.key] > least
        )
        assignment.edge_volume[edge.key] += direction * least
        diagnostics, _ = certify_plan(
            compiled.final_dag, assignment, compiled.spec.limits
        )
        assert "PLAN-FLOW" in _errors(diagnostics), [
            str(d) for d in diagnostics
        ]


class TestCorruptions:
    def test_non_multiple_edge_is_quant(self):
        offset = PAPER_LIMITS.least_count / 2
        assignment = _mix_assignment(a=Fraction(20) + offset)
        diagnostics, _ = certify_plan(_mix_dag(), assignment, PAPER_LIMITS)
        assert "PLAN-QUANT" in _errors(diagnostics)

    def test_sub_least_count_edge_is_underflow(self):
        assignment = _mix_assignment(a=Fraction(0), b=Fraction(40))
        diagnostics, _ = certify_plan(_mix_dag(), assignment, PAPER_LIMITS)
        assert "PLAN-UNDERFLOW" in _errors(diagnostics)

    def test_missing_node_volume_is_coverage(self):
        assignment = _mix_assignment()
        del assignment.node_volume["M"]
        diagnostics, _ = certify_plan(_mix_dag(), assignment, PAPER_LIMITS)
        assert "PLAN-COVERAGE" in _errors(diagnostics)

    def test_negative_edge_is_coverage(self):
        assignment = _mix_assignment()
        assignment.edge_volume[("A", "M")] = Fraction(-1)
        diagnostics, _ = certify_plan(_mix_dag(), assignment, PAPER_LIMITS)
        assert "PLAN-COVERAGE" in _errors(diagnostics)

    def test_capacity_overflow(self):
        assignment = _mix_assignment(a=Fraction(60), b=Fraction(60))
        diagnostics, _ = certify_plan(_mix_dag(), assignment, PAPER_LIMITS)
        assert "PLAN-OVERFLOW" in _errors(diagnostics)

    def test_min_volume_violation(self):
        dag = _mix_dag(min_volume=Fraction(50))
        diagnostics, _ = certify_plan(dag, _mix_assignment(), PAPER_LIMITS)
        assert "PLAN-MIN-VOLUME" in _errors(diagnostics)

    def test_skewed_ratio(self):
        # flows stay conserved, only the 1:1 share is off (30:10)
        assignment = _mix_assignment(a=Fraction(30), b=Fraction(10))
        diagnostics, _ = certify_plan(_mix_dag(), assignment, PAPER_LIMITS)
        assert "PLAN-RATIO" in _errors(diagnostics)

    def test_overdrawn_budget(self):
        dag = AssayDAG("budget")
        dag.add_node(
            Node(
                "S",
                NodeKind.CONSTRAINED_INPUT,
                available_volume=Fraction(10),
            )
        )
        dag.add_node(Node("D", NodeKind.HEAT))
        dag.add_edge(Edge("S", "D", Fraction(1)))
        assignment = SimpleNamespace(
            node_volume={"S": Fraction(20), "D": Fraction(20)},
            node_input_volume={"S": Fraction(20), "D": Fraction(20)},
            edge_volume={("S", "D"): Fraction(20)},
            tolerance=0,
        )
        diagnostics, _ = certify_plan(dag, assignment, PAPER_LIMITS)
        assert "PLAN-BUDGET" in _errors(diagnostics)

    def test_overdraw_is_flow_violation(self):
        assignment = _excess_assignment(excess=Fraction(30))
        diagnostics, _ = certify_plan(
            _excess_dag(), assignment, PAPER_LIMITS
        )
        assert "PLAN-FLOW" in _errors(diagnostics)

    def test_excess_short_fall(self):
        assignment = _excess_assignment(excess=Fraction(10), stored=Fraction(10))
        diagnostics, _ = certify_plan(
            _excess_dag(), assignment, PAPER_LIMITS
        )
        assert "PLAN-EXCESS" in _errors(diagnostics)

    def test_excess_sink_mismatch(self):
        assignment = _excess_assignment(stored=Fraction(5))
        diagnostics, _ = certify_plan(
            _excess_dag(), assignment, PAPER_LIMITS
        )
        assert "PLAN-EXCESS" in _errors(diagnostics)

    def test_no_excess_flag_enforced(self):
        diagnostics, _ = certify_plan(
            _excess_dag(no_excess=True), _excess_assignment(), PAPER_LIMITS
        )
        assert "PLAN-EXCESS" in _errors(diagnostics)


class TestSliceConsistency:
    def test_replica_with_missing_original(self):
        dag = _mix_dag()
        dag.node("M").meta["replica_of"] = "ghost"
        diagnostics, _ = certify_plan(dag, _mix_assignment(), PAPER_LIMITS)
        assert "PLAN-SLICE" in _errors(diagnostics)

    def test_cascade_stage_without_excess_share(self):
        dag = AssayDAG("cascade")
        dag.add_node(Node("A", NodeKind.INPUT))
        dag.add_node(
            Node(
                "T.cascade1",
                NodeKind.MIX,
                ratio=(1,),
                meta={"cascade_of": "T", "stage": 1},
            )
        )
        dag.add_node(Node("T", NodeKind.MIX, ratio=(1,)))
        dag.add_edge(Edge("A", "T.cascade1", Fraction(1)))
        dag.add_edge(Edge("T.cascade1", "T", Fraction(1)))
        assignment = SimpleNamespace(
            node_volume={k: Fraction(20) for k in ("A", "T.cascade1", "T")},
            node_input_volume={
                k: Fraction(20) for k in ("A", "T.cascade1", "T")
            },
            edge_volume={
                ("A", "T.cascade1"): Fraction(20),
                ("T.cascade1", "T"): Fraction(20),
            },
            tolerance=0,
        )
        diagnostics, _ = certify_plan(dag, assignment, PAPER_LIMITS)
        assert "PLAN-SLICE" in _errors(diagnostics)


class TestFeasibilityDowngrade:
    def test_infeasible_plan_downgrades_to_warnings(self):
        """When the compiler already fell back to regeneration, capacity/
        ratio findings are known — they warn instead of failing."""
        assignment = _mix_assignment(a=Fraction(60), b=Fraction(60))
        diagnostics, _ = certify_plan(
            _mix_dag(), assignment, PAPER_LIMITS, expect_feasible=False
        )
        overflow = [d for d in diagnostics if d.code == "PLAN-OVERFLOW"]
        assert overflow and all(
            d.severity.value == "warning" for d in overflow
        )

    def test_structural_codes_never_downgrade(self):
        assignment = _mix_assignment()
        assignment.edge_volume[("A", "M")] += Fraction(5)
        diagnostics, _ = certify_plan(
            _mix_dag(), assignment, PAPER_LIMITS, expect_feasible=False
        )
        assert "PLAN-FLOW" in _errors(diagnostics)
