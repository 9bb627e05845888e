"""Volume-management hierarchy tests (paper Figure 6)."""

import importlib
from fractions import Fraction

import pytest

from repro.assays import generators
from repro.compiler.passes import run_compile
from repro.core.cascading import CascadeReport
from repro.core import dag as dag_module
from repro.core.dag import AssayDAG
from repro.core.errors import VolumeError
from repro.core.hierarchy import VolumeManager
from repro.core.limits import HardwareLimits, PAPER_LIMITS
from repro.core.replication import ReplicationReport
from repro.machine.spec import AQUACORE_XL_SPEC

# the module, not the ``repro.core.dagsolve`` function re-exported over it
dagsolve_module = importlib.import_module("repro.core.dagsolve")


class TestHappyPath:
    def test_glucose_stops_at_dagsolve(self, glucose_dag, limits):
        plan = VolumeManager(limits).plan(glucose_dag)
        assert plan.status == "dagsolve"
        assert plan.feasible
        assert not plan.was_transformed
        assert [a.stage for a in plan.attempts] == ["dagsolve"]

    def test_fig2_stops_at_dagsolve(self, fig2_dag, limits):
        plan = VolumeManager(limits).plan(fig2_dag)
        assert plan.status == "dagsolve"
        assert plan.assignment.feasible


class TestLPFallback:
    def test_lp_used_when_dagsolve_overconstrained(self):
        limits = HardwareLimits(max_capacity=100, least_count=1)
        dag = AssayDAG()
        dag.add_input("A")
        dag.add_input("B")
        dag.add_input("C")
        dag.add_input("D")
        for i in range(30):
            dag.add_mix(f"out{i}", {"A": 1, "B": 1})
        dag.add_mix("out_small", {"C": 1, "D": 9})
        plan = VolumeManager(limits, output_tolerance=None).plan(dag)
        assert plan.status == "lp"
        stages = [a.stage for a in plan.attempts]
        assert stages == ["dagsolve", "lp"]

    def test_lp_disabled_falls_through_to_transforms(self):
        limits = HardwareLimits(max_capacity=100, least_count=1)
        dag = AssayDAG()
        dag.add_input("A")
        dag.add_input("B")
        dag.add_mix("M", {"A": 1, "B": 399})
        plan = VolumeManager(limits, use_lp=False).plan(dag)
        assert "lp" not in [a.stage for a in plan.attempts]
        assert plan.feasible  # cascading fixed it without LP


class TestTransforms:
    def test_extreme_ratio_triggers_cascading(self, coarse_limits):
        dag = AssayDAG()
        dag.add_input("A")
        dag.add_input("B")
        dag.add_mix("M", {"A": 1, "B": 399})
        plan = VolumeManager(coarse_limits).plan(dag)
        assert plan.feasible
        assert any(type(t).__name__ == "CascadeReport" for t in plan.transforms)
        assert plan.dag.node_count > dag.node_count

    def test_enzyme_cascade_then_lp(self, enzyme_dag, limits):
        """Round 1: DAGSolve and LP both fail (the paper reports exactly
        that); cascading fixes the 1:999 mixes; LP's excess freedom then
        finds a feasible point without replication."""
        plan = VolumeManager(limits).plan(enzyme_dag)
        assert plan.feasible
        kinds = {type(t).__name__ for t in plan.transforms}
        assert kinds == {"CascadeReport"}
        lp_attempts = [a for a in plan.attempts if a.stage == "lp"]
        assert not lp_attempts[0].succeeded
        assert lp_attempts[-1].succeeded

    def test_enzyme_needs_replication_without_lp(self, enzyme_dag, limits):
        """The paper's manual Figure 14 path sticks to DAGSolve: after
        cascading, the 1:99 underflow remains and static replication of the
        diluent is required."""
        plan = VolumeManager(limits, use_lp=False).plan(enzyme_dag)
        assert plan.feasible
        assert plan.status == "dagsolve"
        kinds = {type(t).__name__ for t in plan.transforms}
        assert kinds == {"CascadeReport", "ReplicationReport"}

    def test_transform_toggles(self, enzyme_dag, limits):
        plan = VolumeManager(
            limits, allow_cascading=False, allow_replication=False
        ).plan(enzyme_dag)
        assert not plan.feasible
        assert plan.status == "regeneration"


class TestWorkingCopies:
    """Each transform pass copies the DAG once and rewrites that copy, so
    every DAG the hierarchy has handed out stays as it was."""

    def test_kept_assignments_match_their_own_dag(self, monkeypatch):
        kept = []
        better = VolumeManager._better

        def recording(current, candidate):
            kept.append(candidate)
            return better(current, candidate)

        monkeypatch.setattr(VolumeManager, "_better", staticmethod(recording))
        ctx = run_compile(dag=generators.enzyme_n(5), spec=AQUACORE_XL_SPEC)
        kinds = {type(t) for t in ctx.plan.transforms}
        assert kinds == {CascadeReport, ReplicationReport}
        kept += [ctx.hierarchy.best, ctx.plan.assignment]
        assert len({id(a.dag) for a in kept}) >= 3  # one per round
        for assignment in kept:
            edges = {edge.key for edge in assignment.dag.edges()}
            assert set(assignment.edge_volume) == edges

    def test_one_dag_copy_per_rewriting_pass(self, monkeypatch):
        """A per-rewrite clone (13 for this compile) fails here."""
        copies = []
        original = AssayDAG.copy

        def counting(self, name=None):
            copies.append(self.name)
            return original(self, name)

        monkeypatch.setattr(AssayDAG, "copy", counting)
        ctx = run_compile(dag=generators.enzyme_n(6), spec=AQUACORE_XL_SPEC)
        rewriting = [
            attempt
            for attempt in ctx.plan.attempts
            if attempt.stage in ("cascade", "replicate")
            and attempt.succeeded
            and attempt.detail
        ]
        assert len(rewriting) == 2
        assert len(copies) <= len(rewriting)


class TestStructureRecords:
    """A rewritten DAG version re-derives only the nodes its rewrite
    touched; the whole-DAG structural check runs once per input DAG and
    once in certify."""

    def test_tail_input_pays_two_whole_checks(self, monkeypatch):
        """EnzymeN 6 on aquacore-xl builds 6 DAG versions.  Re-checking
        each version whole, as a per-version memo does, runs the check 7
        times; the record store derives 528 node records in all."""
        whole: list[str] = []
        derived: list[str] = []
        check = dag_module.check_structure
        derive = AssayDAG._derive_record

        def checking(dag):
            whole.append(dag.name)
            return check(dag)

        def deriving(self, node_id):
            derived.append(node_id)
            return derive(self, node_id)

        monkeypatch.setattr(dag_module, "check_structure", checking)
        monkeypatch.setattr(
            importlib.import_module("repro.analysis.certify.plan"),
            "check_structure",
            checking,
        )
        monkeypatch.setattr(AssayDAG, "_derive_record", deriving)
        ctx = run_compile(
            dag=generators.enzyme_n(6), spec=AQUACORE_XL_SPEC, certify=True
        )
        assert ctx.compiled.listing()
        assert ctx.plan.feasible
        assert len(whole) == 2
        assert len(derived) == 528


class TestIntegerVerdicts:
    """DAGSolve's verdicts read its integers, not Fractions."""

    def test_cold_compile_never_rebuilds_a_common_denominator(
        self, monkeypatch
    ):
        """Every dispense in a cold compile reuses the backward pass's
        integers; only restored or hand-built Vnorms need the LCM."""
        calls = []
        original = dagsolve_module._common_denominator

        def counting(vnorms):
            calls.append(vnorms)
            return original(vnorms)

        monkeypatch.setattr(dagsolve_module, "_common_denominator", counting)
        ctx = run_compile(dag=generators.enzyme_n(6), spec=AQUACORE_XL_SPEC)
        assert ctx.plan.feasible
        assert calls == []

    def test_failed_attempt_reads_only_its_violators(self, monkeypatch):
        """A failed DAGSolve attempt materializes one Fraction per
        violation at most: none for the entries that pass."""
        made = []
        original = dagsolve_module._fraction

        def counting(num, den):
            made.append((num, den))
            return original(num, den)

        monkeypatch.setattr(dagsolve_module, "_fraction", counting)
        assignment = dagsolve_module.dagsolve(
            generators.enzyme_n(6), AQUACORE_XL_SPEC.limits
        )
        violations = assignment.violations()
        assert violations
        assert len(made) <= len(violations)
        # the minimum edge underflows, so ranking it reads no new entry
        assignment.min_edge()
        assert len(made) <= len(violations)


class TestSummary:
    def test_edgeless_plan_summary(self):
        """A one-input assay dispenses nothing: ``min_edge`` raises the
        coded error and the summary says so instead of crashing."""
        dag = AssayDAG("one")
        dag.add_input("A")
        plan = VolumeManager(PAPER_LIMITS).plan(dag)
        with pytest.raises(VolumeError):
            plan.assignment.min_edge()
        with pytest.raises(VolumeError):
            plan.assignment.min_edge_volume()
        assert "no dispense" in plan.summary()


class TestRegenerationFallback:
    def test_best_attempt_kept(self, limits):
        # An extreme 3-way mix: cascading refuses (not 2-input), and
        # replication cannot help -> regeneration with the best infeasible
        # assignment retained.
        dag = AssayDAG()
        for name in "ABC":
            dag.add_input(name)
        dag.add_mix("M", {"A": 1, "B": 5000, "C": 1})
        plan = VolumeManager(limits).plan(dag)
        assert plan.status == "regeneration"
        assert plan.assignment is not None
        assert not plan.assignment.feasible
        assert plan.needs_regeneration

    def test_summary_readable(self, enzyme_dag, limits):
        plan = VolumeManager(limits).plan(enzyme_dag)
        text = plan.summary()
        assert "dagsolve" in text
        assert "min dispense" in text


class TestRounds:
    def test_max_rounds_respected(self, enzyme_dag, limits):
        plan = VolumeManager(limits, max_rounds=1).plan(enzyme_dag)
        # One round: dagsolve fails, lp fails, cascade applied, loop ends.
        assert plan.status == "regeneration"
        rounds = {a.round for a in plan.attempts}
        assert rounds == {1}

    def test_attempt_log_orders_stages(self, enzyme_dag, limits):
        plan = VolumeManager(limits).plan(enzyme_dag)
        for first, second in zip(plan.attempts, plan.attempts[1:]):
            assert first.round <= second.round
