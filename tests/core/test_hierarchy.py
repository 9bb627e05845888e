"""Volume-management hierarchy tests (paper Figure 6)."""

from fractions import Fraction

import pytest

from repro.assays import generators
from repro.compiler.passes import run_compile
from repro.core.cascading import CascadeReport
from repro.core.dag import AssayDAG
from repro.core.hierarchy import VolumeManager
from repro.core.limits import HardwareLimits, PAPER_LIMITS
from repro.core.replication import ReplicationReport
from repro.machine.spec import AQUACORE_XL_SPEC


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
