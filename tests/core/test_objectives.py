"""Pluggable planning objectives: registry, per-layer behaviour, keying.

The ``default`` objective must be invisible (byte-identical plans to the
pre-objective compiler — the corpus gate in ``tools/waste_corpus.py``
pins that repo-wide); these tests pin the ``waste`` objective's visible
behaviour layer by layer: the scale-minimising dispense floor, the
front-loaded cascade splits with stage sharing, the LP cost vector, and
the per-objective fingerprint/cache keying.
"""

from fractions import Fraction

import pytest

from repro.analysis.certify import certify_plan
from repro.assays.gradients import (
    dilution_gradient,
    gradient_corpus,
    linear_gradient,
    target_concentration_tree,
)
from repro.core.cascading import (
    cascade_extreme_mixes,
    waste_stage_factors,
)
from repro.core.dag import AssayDAG
from repro.core.dagsolve import dagsolve
from repro.core.errors import ResourceExhaustedError, VolumeError
from repro.core.fingerprint import compile_fingerprint
from repro.core.hierarchy import Attempt, VolumeManager
from repro.core.limits import PAPER_LIMITS
from repro.core.objectives import (
    DEFAULT_OBJECTIVE,
    OBJECTIVES,
    WASTE_OBJECTIVE,
    resolve_objective,
)
from repro.core.report import plan_waste_breakdown
from repro.core.serde import _attempt_from_dict, _attempt_to_dict

from oracles import dagsolve as oracle


def simple_mix(stock_parts=1, diluent_parts=3):
    dag = AssayDAG("simple")
    dag.add_input("stock")
    dag.add_input("diluent")
    dag.add_mix("out", {"stock": stock_parts, "diluent": diluent_parts})
    dag.validate()
    return dag


class TestRegistry:
    def test_names(self):
        assert set(OBJECTIVES) == {"default", "waste"}
        assert resolve_objective("default") is DEFAULT_OBJECTIVE
        assert resolve_objective("waste") is WASTE_OBJECTIVE
        assert resolve_objective(None) is DEFAULT_OBJECTIVE
        assert resolve_objective(WASTE_OBJECTIVE) is WASTE_OBJECTIVE

    def test_unknown_name_raises(self):
        with pytest.raises(VolumeError, match="unknown planning objective"):
            resolve_objective("speed")

    def test_flags(self):
        assert not DEFAULT_OBJECTIVE.minimize_scale
        assert not DEFAULT_OBJECTIVE.waste_aware_cascades
        assert WASTE_OBJECTIVE.minimize_scale
        assert WASTE_OBJECTIVE.waste_aware_cascades

    def test_lp_pairs_differ(self):
        dag = simple_mix()
        outputs = [n for n in dag.nodes() if dag.out_degree(n.id) == 0]
        default_pairs = DEFAULT_OBJECTIVE.lp_objective_pairs(dag, outputs)
        waste_pairs = WASTE_OBJECTIVE.lp_objective_pairs(dag, outputs)
        # waste adds a -1 draw penalty per source edge on top of delivery
        assert set(default_pairs) < set(waste_pairs)
        penalties = set(waste_pairs) - set(default_pairs)
        assert penalties == {
            (("stock", "out"), -1.0),
            (("diluent", "out"), -1.0),
        }
        # and the extra material must be covered by the cache signature
        assert set(WASTE_OBJECTIVE.lp_signature_extra(dag)) == {
            key for key, __ in penalties
        }


class TestDispenseFloor:
    def test_waste_settles_at_least_count(self):
        dag = simple_mix()
        default = dagsolve(dag, PAPER_LIMITS)
        waste = dagsolve(dag, PAPER_LIMITS, objective="waste")
        assert not default.violations() and not waste.violations()
        # default anchors at capacity: the mix holds 100 nl
        assert default.node_input_volume["out"] == PAPER_LIMITS.max_capacity
        # waste floors the smallest edge at the least count instead
        assert min(waste.edge_volume.values()) == PAPER_LIMITS.least_count
        assert sum(waste.edge_volume.values()) < sum(
            default.edge_volume.values()
        )

    def test_exact_solver_matches_reference(self):
        for dag in (simple_mix(), linear_gradient(5)):
            reference = oracle.dagsolve(dag, PAPER_LIMITS, objective="waste")
            exact = dagsolve(dag, PAPER_LIMITS, objective="waste")
            assert exact.scale == reference.scale
            assert exact.edge_volume == reference.edge_volume

    def test_infeasible_dag_unchanged_by_objective(self):
        # a 1:999999 mix underflows either way; the floor must not mask
        # the violation set the hierarchy keys its retries on
        dag = simple_mix(1, 999_999)
        default = dagsolve(dag, PAPER_LIMITS)
        waste = dagsolve(dag, PAPER_LIMITS, objective="waste")
        assert [v.kind for v in default.violations()] == [
            v.kind for v in waste.violations()
        ]


class TestWasteCascades:
    def test_front_loaded_factors(self):
        factors = waste_stage_factors(Fraction(1000), PAPER_LIMITS)
        assert factors[0] == 500
        assert all(f <= PAPER_LIMITS.dynamic_range for f in factors)
        total = Fraction(1)
        for factor in factors:
            total *= factor
        assert total == 1000
        # discard is set by the tail factors only: [500, 2] discards half
        # a stage volume where the balanced [~31.6, ~31.6] discards ~0.97
        tail_discard = sum(1 - 1 / f for f in factors[1:])
        assert tail_discard <= Fraction(1, 2)

    def test_tiny_span_rejected(self):
        from repro.core.limits import HardwareLimits

        tight = HardwareLimits(max_capacity=1, least_count=Fraction(1, 2))
        with pytest.raises(ResourceExhaustedError):
            waste_stage_factors(Fraction(1000), tight)

    def test_shared_stages_between_replicate_wells(self):
        dag = dilution_gradient(1, 10_000, replicates=3)
        cascaded, reports = cascade_extreme_mixes(
            dag, PAPER_LIMITS, objective=WASTE_OBJECTIVE
        )
        assert len(reports) == 3
        shared = [r for r in reports if r.shared_ids]
        assert len(shared) == 2, "wells 2 and 3 reuse well 1's stages"
        # a fully-drawn shared stage keeps no excess edge
        for report in shared:
            for stage_id in report.shared_ids:
                node = cascaded.node(stage_id)
                if node.excess_fraction == 0:
                    assert not any(
                        e.is_excess for e in cascaded.out_edges(stage_id)
                    )

    def test_default_objective_never_shares(self):
        dag = dilution_gradient(1, 10_000, replicates=3)
        __, reports = cascade_extreme_mixes(dag, PAPER_LIMITS)
        assert all(not r.shared_ids for r in reports)


class TestHierarchy:
    def test_gradient_corpus_both_objectives_certify(self):
        for dag in gradient_corpus():
            for objective in ("default", "waste"):
                manager = VolumeManager(PAPER_LIMITS, objective=objective)
                plan = manager.plan(dag)
                assert plan.assignment is not None, (dag.name, objective)
                diagnostics, __ = certify_plan(
                    plan.dag,
                    plan.assignment,
                    PAPER_LIMITS,
                    expect_feasible=plan.feasible,
                )
                errors = [d for d in diagnostics if d.severity == "error"]
                assert not errors, (dag.name, objective, errors)

    def test_attempts_tagged_with_objective(self):
        manager = VolumeManager(PAPER_LIMITS, objective="waste")
        plan = manager.plan(dilution_gradient(2, 10_000))
        assert plan.attempts
        assert all(a.objective == "waste" for a in plan.attempts)
        assert "[waste]" in str(plan.attempts[0])
        # default stays unlabelled (pre-refactor rendering)
        default_plan = VolumeManager(PAPER_LIMITS).plan(simple_mix())
        assert "[" not in str(default_plan.attempts[0])

    def test_options_dict_carries_objective(self):
        manager = VolumeManager(PAPER_LIMITS, objective="waste")
        assert manager.options_dict()["objective"] == "waste"
        assert VolumeManager(PAPER_LIMITS).options_dict()["objective"] == (
            "default"
        )

    def test_attempt_serde_roundtrip(self):
        attempt = Attempt(
            stage="dagsolve", round=2, succeeded=True, detail="ok",
            objective="waste",
        )
        restored = _attempt_from_dict(_attempt_to_dict(attempt))
        assert restored == attempt
        # legacy payloads without the field decode as default
        legacy = _attempt_to_dict(attempt)
        del legacy["objective"]
        assert _attempt_from_dict(legacy).objective == "default"


class TestFingerprints:
    def test_disjoint_per_objective(self):
        dag = simple_mix()
        prints = {
            objective: compile_fingerprint(
                dag,
                PAPER_LIMITS,
                None,
                VolumeManager(PAPER_LIMITS, objective=objective)
                .options_dict(),
            )
            for objective in OBJECTIVES
        }
        assert prints["default"] != prints["waste"]

    def test_cache_isolated_per_objective(self, tmp_path):
        from repro.compiler.cache import PlanCache
        from repro.compiler.passes import run_compile

        cache = PlanCache(directory=str(tmp_path / "cache"))
        dag = target_concentration_tree(Fraction(5, 16), bits=4)
        for objective in ("default", "waste"):
            ctx = run_compile(
                dag=dag.copy(),
                manager=VolumeManager(PAPER_LIMITS, objective=objective),
                cache=cache,
            )
            assert not ctx.plan_restored, objective
        # resubmitting each objective hits its own entry
        for objective in ("default", "waste"):
            ctx = run_compile(
                dag=dag.copy(),
                manager=VolumeManager(PAPER_LIMITS, objective=objective),
                cache=cache,
            )
            assert ctx.plan_restored, objective


class TestWasteBreakdownReconciliation:
    """Satellite: breakdowns price the final post-transform DAG."""

    def test_matches_certify_metrics_on_transformed_plan(self):
        dag = dilution_gradient(3, 50_000, replicates=3)
        for objective in ("default", "waste"):
            manager = VolumeManager(PAPER_LIMITS, objective=objective)
            plan = manager.plan(dag)
            assert plan.was_transformed
            breakdown = plan_waste_breakdown(plan)
            __, metrics = certify_plan(
                plan.dag,
                plan.assignment,
                PAPER_LIMITS,
                expect_feasible=plan.feasible,
            )
            assert float(breakdown.excess) == pytest.approx(
                metrics["excess_nl"]
            ), objective

    def test_planless_assignment_rejected(self):
        plan = VolumeManager(PAPER_LIMITS).plan(simple_mix())
        plan.assignment = None
        with pytest.raises(ValueError, match="no assignment"):
            plan_waste_breakdown(plan)
