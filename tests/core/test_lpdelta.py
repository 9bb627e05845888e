"""The one LP model builder: identity with the oracle, reuse, warm starts.

Every model :class:`IncrementalLPBuilder` assembles — cold, warm, or after
a rewrite — must equal the from-scratch reference in
:mod:`oracles.lpmodel`, down to the CSR arrays and row labels.
"""

from fractions import Fraction

import numpy as np
import pytest

from repro.assays import enzyme, generators, glucose
from repro.core.cascading import cascade_extreme_mixes
from repro.core.errors import DagError
from repro.core.limits import PAPER_LIMITS
from repro.core.lp import solve_model
from repro.core.lpmodel import IncrementalLPBuilder, build_lp_model

from oracles.lpmodel import build_lp_model as reference_lp_model

OPTION_COMBOS = (
    {},
    {"output_tolerance": None},
    {"dagsolve_constraints": True},
    {"min_volume_bounds": False},
)


def corpus():
    return [
        glucose.build_dag(),
        enzyme.build_dag(4),
        generators.serial_dilution(6),
        generators.binary_mix_tree(3),
        generators.fanout_chain(4),
    ]


def assert_models_equal(full, inc):
    assert list(full.var_index.items()) == list(inc.var_index.items())
    assert np.array_equal(full.objective, inc.objective)
    for reference, candidate in ((full.a_ub, inc.a_ub), (full.a_eq, inc.a_eq)):
        assert np.array_equal(reference.indptr, candidate.indptr)
        assert np.array_equal(reference.indices, candidate.indices)
        assert np.array_equal(reference.data, candidate.data)
    assert np.array_equal(full.b_ub, inc.b_ub)
    assert np.array_equal(full.b_eq, inc.b_eq)
    assert full.bounds == inc.bounds
    assert full.rows_ub == inc.rows_ub
    assert full.rows_eq == inc.rows_eq


class TestModelIdentity:
    @pytest.mark.parametrize("options", OPTION_COMBOS, ids=str)
    def test_cold_and_warm_builds_match_reference(self, options):
        builder = IncrementalLPBuilder(PAPER_LIMITS, **options)
        for dag in corpus():
            reference = reference_lp_model(dag, PAPER_LIMITS, **options)
            assert_models_equal(reference, builder.build(dag))  # cold
            assert_models_equal(reference, builder.build(dag))  # warm
            assert_models_equal(
                reference, build_lp_model(dag, PAPER_LIMITS, **options)
            )

    def test_alternating_dags_match_reference(self):
        """The retry-loop shape: the builder flips between a DAG and its
        cascaded rewrite without ever serving a stale bundle."""
        base = enzyme.build_dag(6)
        cascaded, __ = cascade_extreme_mixes(base, PAPER_LIMITS)
        builder = IncrementalLPBuilder(PAPER_LIMITS)
        for dag in (base, cascaded, base, cascaded):
            assert_models_equal(
                reference_lp_model(dag, PAPER_LIMITS), builder.build(dag)
            )

    def test_structural_mutation_invalidates_derived_caches(self):
        dag = generators.serial_dilution(5)
        builder = IncrementalLPBuilder(PAPER_LIMITS)
        builder.build(dag)
        assert "lp-structure" in dag._derived
        edge = dag.in_edges(dag.outputs()[0].id)[0]
        removed = dag.remove_edge(*edge.key)
        assert "lp-structure" not in dag._derived
        assert "lp-varindex" not in dag._derived
        dag.add_edge(removed)
        assert_models_equal(
            reference_lp_model(dag, PAPER_LIMITS), builder.build(dag)
        )

    def test_min_volume_change_reaches_bounds(self):
        """Class-1 bounds read the live FU minimum: setting ``min_volume``
        on a single-input node after a build must move its edge's lower
        bound, in a fresh builder and in a warm one."""
        dag = enzyme.build_dag(4)
        warm = IncrementalLPBuilder(PAPER_LIMITS)
        warm.build(dag)
        node = dag.node("combo111.inc")
        assert dag.in_degree(node.id) == 1
        node.min_volume = Fraction(5)
        (edge,) = dag.in_edges(node.id)
        reference = reference_lp_model(dag, PAPER_LIMITS)
        for model in (
            build_lp_model(dag, PAPER_LIMITS),
            IncrementalLPBuilder(PAPER_LIMITS).build(dag),
            warm.build(dag),
        ):
            assert model.bounds[model.var_index[edge.key]] == (5.0, 100.0)
            assert_models_equal(reference, model)


class TestReuseStats:
    def test_warm_rebuild_reuses_every_bundle(self):
        dag = enzyme.build_dag(4)
        builder = IncrementalLPBuilder(PAPER_LIMITS)
        builder.build(dag)
        cold = builder.last_stats
        assert cold["reused"] == 0 and cold["nodes"] > 0
        builder.build(dag)
        warm = builder.last_stats
        assert warm["nodes"] == cold["nodes"]
        assert warm["reused"] == warm["nodes"]

    def test_stats_ride_on_model_meta(self):
        dag = glucose.build_dag()
        builder = IncrementalLPBuilder(PAPER_LIMITS)
        builder.build(dag)
        model = builder.build(dag)
        assert model.meta["incremental"] == builder.last_stats

    def test_unknown_volume_rejected_like_reference(self):
        """Unknown-volume nodes with downstream uses (the partition error
        case) are rejected with the reference's message."""
        dag = generators.serial_dilution(3)
        node = next(
            n
            for n in dag.nodes()
            if dag.out_degree(n.id) > 0 and dag.in_degree(n.id) > 0
        )
        node.unknown_volume = True
        node.output_fraction = None
        with pytest.raises(DagError) as reference:
            reference_lp_model(dag, PAPER_LIMITS)
        builder = IncrementalLPBuilder(PAPER_LIMITS)
        with pytest.raises(DagError) as incremental:
            builder.build(dag)
        assert str(incremental.value) == str(reference.value)


class TestWarmStartMetadata:
    def test_solution_records_honest_warm_start(self):
        dag = glucose.build_dag()
        builder = IncrementalLPBuilder(PAPER_LIMITS)
        model = builder.build(dag)
        cold = solve_model(model)
        guess = [float(cold.edge_volume[key]) for key in model.var_index]
        warm = solve_model(builder.build(dag), warm_start=guess)
        note = warm.meta["warm_start"]
        assert note["provided"] is True
        assert note["applied"] is False  # scipy's HiGHS ignores x0
        assert note["reason"]
        assert warm.edge_volume == cold.edge_volume

    def test_stale_warm_start_reports_length_mismatch(self):
        dag = glucose.build_dag()
        builder = IncrementalLPBuilder(PAPER_LIMITS)
        model = builder.build(dag)
        result = solve_model(model, warm_start=[1.0, 2.0])
        note = result.meta["warm_start"]
        assert note["applied"] is False
        assert "stale vector" in note["reason"]

    def test_incremental_meta_reaches_assignment(self):
        dag = glucose.build_dag()
        builder = IncrementalLPBuilder(PAPER_LIMITS)
        builder.build(dag)
        assignment = solve_model(builder.build(dag))
        assert assignment.meta["incremental"]["reused"] > 0
