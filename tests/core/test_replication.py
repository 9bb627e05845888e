"""Static replication tests (paper Section 3.4.2, Figure 14)."""

import functools
from fractions import Fraction

import pytest

from repro.core.cascading import cascade_mix, stage_factors
from repro.core.dag import AssayDAG, NodeKind
from repro.core.dagsolve import compute_vnorms, dagsolve
from repro.core.errors import DagError, ResourceExhaustedError
from repro.core.limits import HardwareLimits
from repro.core.replication import (
    iterative_replication,
    needed_copies,
    replicate_node,
)
from repro.assays import enzyme, generators, gradients
from repro.compiler.passes import stages
from repro.core import replication
from repro.core.hierarchy import VolumeManager
from repro.core.limits import PAPER_LIMITS
from repro.machine.spec import AQUACORE_XL_SPEC


def fanout_dag(uses: int) -> AssayDAG:
    dag = AssayDAG(f"fanout{uses}")
    dag.add_input("stock")
    for i in range(uses):
        dag.add_input(f"r{i}")
        dag.add_mix(f"m{i}", {"stock": 1, f"r{i}": 1})
    return dag


class TestReplicateNode:
    def test_replicas_created_and_uses_distributed(self):
        dag = fanout_dag(6)
        replicated, report = replicate_node(dag, "stock", 3)
        assert report.copies == 3
        assert len(report.replica_ids) == 3
        # 6 uses over 3 replicas: 2 each
        for replica in report.replica_ids:
            assert replicated.out_degree(replica) == 2
        replicated.validate()

    def test_original_keeps_identity(self):
        dag = fanout_dag(4)
        replicated, report = replicate_node(dag, "stock", 2)
        assert "stock" in replicated
        assert report.replica_ids[0] == "stock"
        assert "stock.rep2" in replicated

    def test_consumer_fractions_preserved(self):
        dag = AssayDAG()
        dag.add_input("stock")
        dag.add_input("x")
        dag.add_input("y")
        dag.add_mix("m1", {"stock": 1, "x": 9})
        dag.add_mix("m2", {"stock": 3, "y": 1})
        replicated, __ = replicate_node(dag, "stock", 2)
        for consumer, fraction in (
            ("m1", Fraction(1, 10)),
            ("m2", Fraction(3, 4)),
        ):
            (edge,) = [
                e for e in replicated.in_edges(consumer)
                if e.src.startswith("stock")
            ]
            assert edge.fraction == fraction
        replicated.validate()

    def test_internal_node_copies_inbound_edges(self):
        dag = AssayDAG()
        dag.add_input("a")
        dag.add_input("b")
        dag.add_mix("mid", {"a": 1, "b": 1})
        for i in range(4):
            dag.add_unary(f"use{i}", "mid")
        replicated, __ = replicate_node(dag, "mid", 2)
        assert replicated.has_edge("a", "mid.rep2")
        assert replicated.has_edge("b", "mid.rep2")
        # predecessors' use counts grew: the replicated backward-slice level
        assert replicated.out_degree("a") == 2
        replicated.validate()

    def test_vnorm_weighted_balance(self):
        """Weighted LPT must divide the enzyme diluent evenly (Vnorm 27
        per replica, paper Figure 14(b))."""
        dag = enzyme.build_dag()
        cascaded = dag
        for reagent in enzyme.REAGENTS:
            cascaded, __ = cascade_mix(
                cascaded,
                f"{reagent}.dil4",
                stage_factors(Fraction(1000), 3),
            )
        vnorms = compute_vnorms(cascaded)
        weights = {
            e.key: vnorms.edge_vnorm[e.key]
            for e in cascaded.out_edges("diluent")
        }
        replicated, report = replicate_node(
            cascaded, "diluent", 3, weights=weights
        )
        new_vnorms = compute_vnorms(replicated)
        values = [new_vnorms.node_vnorm[r] for r in report.replica_ids]
        assert max(values) == min(values)  # perfectly even by symmetry
        total = sum(values)
        assert total == vnorms.node_vnorm["diluent"]  # load conserved

    def test_too_few_uses_rejected(self):
        dag = fanout_dag(2)
        with pytest.raises(DagError):
            replicate_node(dag, "stock", 3)

    def test_copies_must_be_at_least_two(self):
        dag = fanout_dag(3)
        with pytest.raises(ValueError):
            replicate_node(dag, "stock", 1)

    def test_constrained_input_not_replicable(self):
        from repro.core.dag import Node

        dag = AssayDAG()
        dag.add_node(
            Node("X", NodeKind.CONSTRAINED_INPUT, available_volume=Fraction(10))
        )
        dag.add_input("b")
        dag.add_mix("m1", {"X": 1, "b": 1})
        dag.add_mix("m2", {"X": 1, "b": 1})
        with pytest.raises(DagError):
            replicate_node(dag, "X", 2)


class TestNeededCopies:
    def test_exact_division(self):
        assert needed_copies(Fraction(80), Fraction(100), Fraction(5)) == 4

    def test_rounds_up(self):
        assert needed_copies(Fraction(81), Fraction(100), Fraction(5)) == 5

    def test_minimum_two(self):
        assert needed_copies(Fraction(10), Fraction(100), Fraction(2)) == 2


class TestIterativeReplication:
    def test_fixes_capacity_limited_underflow(self):
        limits = HardwareLimits(max_capacity=100, least_count=1)
        # 40 uses of the stock at 1:1 -> stock Vnorm 20 -> scale 5 -> each
        # reagent share 2.5; with uses at 1:4 the minor share is 1 nl at
        # scale 5... craft shares that underflow without replication:
        dag = AssayDAG()
        dag.add_input("stock")
        for i in range(40):
            dag.add_input(f"r{i}")
            dag.add_mix(f"m{i}", {"stock": 3, f"r{i}": 1})
        baseline = dagsolve(dag, limits)
        assert not baseline.feasible
        replicated, reports = iterative_replication(dag, limits)
        assert reports  # at least one round happened
        assert dagsolve(replicated, limits).feasible

    def test_noop_when_already_feasible(self, glucose_dag, limits):
        replicated, reports = iterative_replication(glucose_dag, limits)
        assert reports == []
        assert replicated is glucose_dag

    def test_gives_up_when_not_capacity_limited(self, limits):
        # A single extreme mix: replication cannot help (cascading's job).
        dag = AssayDAG()
        dag.add_input("A")
        dag.add_input("B")
        dag.add_mix("M", {"A": 1, "B": 9999})
        with pytest.raises(ResourceExhaustedError):
            iterative_replication(dag, limits)

    def test_respects_node_budget(self):
        limits = HardwareLimits(max_capacity=100, least_count=1)
        dag = AssayDAG()
        dag.add_input("stock")
        for i in range(40):
            dag.add_input(f"r{i}")
            dag.add_mix(f"m{i}", {"stock": 3, f"r{i}": 1})
        with pytest.raises(ResourceExhaustedError):
            iterative_replication(dag, limits, max_total_nodes=81)


def _replication_inputs(monkeypatch, dag, limits):
    """Every DAG the hierarchy hands to replication, under both
    objectives (their cascades differ, so their inputs may too)."""
    seen = [dag]
    original = stages.iterative_replication

    def recording(current, *args, **kwargs):
        seen.append(current)
        return original(current, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(stages, "iterative_replication", recording)
        for objective in ("default", "waste"):
            VolumeManager(limits, objective=objective).plan(dag)
    return seen


def _outcome(dag, limits):
    try:
        out, reports = iterative_replication(dag, limits)
    except ResourceExhaustedError as error:
        return str(error)
    return reports, {(edge.key, edge.fraction) for edge in out.edges()}


class TestObjectiveIndependence:
    """``iterative_replication`` takes no objective: ``dispense`` keeps one
    feasibility window under every objective, so dispensing at the waste
    anchor instead changes no rewrite."""

    @pytest.mark.parametrize(
        "dag,limits",
        [
            (generators.enzyme_n(5), AQUACORE_XL_SPEC.limits),
            (generators.enzyme_n(6), AQUACORE_XL_SPEC.limits),
        ]
        + [(dag, PAPER_LIMITS) for dag in gradients.gradient_corpus()],
        ids=lambda value: getattr(value, "name", None),
    )
    def test_reports_identical_under_waste(self, monkeypatch, dag, limits):
        inputs = _replication_inputs(monkeypatch, dag, limits)
        default = [_outcome(current, limits) for current in inputs]
        waste_dispense = functools.partial(
            replication.dispense, objective="waste"
        )
        monkeypatch.setattr(replication, "dispense", waste_dispense)
        assert [_outcome(current, limits) for current in inputs] == default
