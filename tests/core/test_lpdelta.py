"""The one LP model builder: identity with the oracle.

Every model :class:`IncrementalLPBuilder` builds — a builder's first
build, a repeated one, or one after a rewrite — must equal the reference
in :mod:`oracles.lpmodel`, down to the CSR arrays and row labels, so a
builder carries no state from one build to the next.
"""

from fractions import Fraction

import numpy as np
import pytest

from repro.assays import enzyme, generators, glucose
from repro.core.cascading import cascade_extreme_mixes
from repro.core.errors import DagError
from repro.core.limits import PAPER_LIMITS
from repro.core.lpmodel import IncrementalLPBuilder, build_lp_model

from oracles.lpmodel import build_lp_model as reference_lp_model

OPTION_COMBOS = (
    {},
    {"output_tolerance": None},
    {"dagsolve_constraints": True},
    {"min_volume_bounds": False},
    {"objective": "waste"},
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
            assert_models_equal(reference, builder.build(dag))  # first
            assert_models_equal(reference, builder.build(dag))  # repeated
            assert_models_equal(
                reference, build_lp_model(dag, PAPER_LIMITS, **options)
            )

    def test_alternating_dags_match_reference(self):
        """The retry-loop shape: one builder flips between a DAG and its
        cascaded rewrite, and each model matches its own DAG."""
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
        bound, in a fresh builder and in one that built the DAG before."""
        dag = enzyme.build_dag(4)
        used = IncrementalLPBuilder(PAPER_LIMITS)
        used.build(dag)
        node = dag.node("combo111.inc")
        assert dag.in_degree(node.id) == 1
        node.min_volume = Fraction(5)
        (edge,) = dag.in_edges(node.id)
        reference = reference_lp_model(dag, PAPER_LIMITS)
        for model in (
            build_lp_model(dag, PAPER_LIMITS),
            IncrementalLPBuilder(PAPER_LIMITS).build(dag),
            used.build(dag),
        ):
            assert model.bounds[model.var_index[edge.key]] == (5.0, 100.0)
            assert_models_equal(reference, model)

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
        with pytest.raises(DagError) as built:
            builder.build(dag)
        assert str(built.value) == str(reference.value)
