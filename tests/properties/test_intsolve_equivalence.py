"""Property-based equivalence: the integer DAGSolve vs the Fraction oracle.

:mod:`repro.core.dagsolve` runs both passes over integers under one
lazily-grown common denominator; :mod:`oracles.dagsolve` is the paper's
Figure 4 written out in :class:`fractions.Fraction`.  These properties pin
the contract between them — over random layered DAGs (including extreme
mix ratios and separators), under both planning objectives, for measured
constrained inputs, and for Vnorms restored from a cache entry, every
Fraction, every visit counter, every violation verdict, and every
validation error is exactly what the oracle produces.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assays import generators, glycomics
from repro.core.dagsolve import (
    _CONTEXT_KEY,
    _context,
    compute_vnorms,
    dagsolve,
    dispense,
)
from repro.core.errors import DagError, VolumeError
from repro.core.limits import PAPER_LIMITS
from repro.core.runtime_assign import RuntimePlanner
from repro.core.serde import (
    fraction_to_str,
    vnorms_from_dict,
    vnorms_to_dict,
)

from oracles import dagsolve as oracle

dag_seeds = st.integers(min_value=0, max_value=10_000)
shapes = st.tuples(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=3),
)
objectives = st.sampled_from([None, "default", "waste"])


def random_dag(seed, shape, *, max_ratio=9, separator_probability=0.0):
    return generators.layered_random_dag(
        shape[0],
        shape[1],
        shape[2],
        seed=seed,
        max_ratio=max_ratio,
        separator_probability=separator_probability,
    )


def assert_same_vnorms(reference, candidate):
    assert reference.node_vnorm == candidate.node_vnorm
    assert reference.node_input_vnorm == candidate.node_input_vnorm
    assert reference.edge_vnorm == candidate.edge_vnorm
    assert reference.nodes_visited == candidate.nodes_visited
    assert reference.edges_visited == candidate.edges_visited


def assert_same_assignment(reference, candidate):
    assert reference.node_volume == candidate.node_volume
    assert reference.node_input_volume == candidate.node_input_volume
    assert reference.edge_volume == candidate.edge_volume
    assert reference.scale == candidate.scale
    assert_same_vnorms(reference.vnorms, candidate.vnorms)
    # the verdicts must agree violation by violation, not just overall
    assert reference.violations() == candidate.violations()
    assert reference.feasible == candidate.feasible


class TestEquivalence:
    @given(seed=dag_seeds, shape=shapes)
    @settings(max_examples=60, deadline=None)
    def test_vnorms_bit_identical(self, seed, shape):
        dag = random_dag(seed, shape)
        assert_same_vnorms(oracle.compute_vnorms(dag), compute_vnorms(dag))

    @given(seed=dag_seeds, shape=shapes)
    @settings(max_examples=60, deadline=None)
    def test_assignment_bit_identical(self, seed, shape):
        dag = random_dag(seed, shape)
        assert_same_assignment(
            oracle.dagsolve(dag, PAPER_LIMITS), dagsolve(dag, PAPER_LIMITS)
        )

    @given(seed=dag_seeds, shape=shapes)
    @settings(max_examples=40, deadline=None)
    def test_extreme_ratios(self, seed, shape):
        """Mix parts up to 99:1 force large scale denominators — exactly
        the regime where float solvers drift and exact ones must not."""
        dag = random_dag(seed, shape, max_ratio=99)
        assert_same_assignment(
            oracle.dagsolve(dag, PAPER_LIMITS), dagsolve(dag, PAPER_LIMITS)
        )

    @given(seed=dag_seeds, shape=shapes)
    @settings(max_examples=40, deadline=None)
    def test_separators(self, seed, shape):
        dag = random_dag(seed, shape, separator_probability=0.3)
        assert_same_assignment(
            oracle.dagsolve(dag, PAPER_LIMITS), dagsolve(dag, PAPER_LIMITS)
        )

    @given(
        seed=dag_seeds,
        shape=shapes,
        num=st.integers(min_value=1, max_value=40),
        den=st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=40, deadline=None)
    def test_output_targets(self, seed, shape, num, den):
        """Fractional per-output targets drive the lazy rescaling path."""
        dag = random_dag(seed, shape)
        targets = {
            node.id: Fraction(num + i, den)
            for i, node in enumerate(dag.outputs())
        }
        assert_same_vnorms(
            oracle.compute_vnorms(dag, targets), compute_vnorms(dag, targets)
        )
        assert_same_assignment(
            oracle.dagsolve(dag, PAPER_LIMITS, targets),
            dagsolve(dag, PAPER_LIMITS, targets),
        )

    @given(seed=dag_seeds, shape=shapes)
    @settings(max_examples=30, deadline=None)
    def test_context_reuse_is_transparent(self, seed, shape):
        """Two solves over the cached context equal one fresh solve."""
        dag = random_dag(seed, shape)
        first = dagsolve(dag, PAPER_LIMITS)
        second = dagsolve(dag, PAPER_LIMITS)
        assert _context(dag) is _context(dag)
        assert_same_assignment(first, second)


class TestDispense:
    """The forward pass on its own, over Vnorms it did not compute."""

    @given(
        seed=dag_seeds,
        shape=shapes,
        objective=objectives,
        max_ratio=st.sampled_from([9, 99]),
    )
    @settings(max_examples=40, deadline=None)
    def test_objectives(self, seed, shape, objective, max_ratio):
        """``objective="waste"`` settles at the floor scale; the integer
        floor must pick the oracle's bound exactly."""
        dag = random_dag(seed, shape, max_ratio=max_ratio)
        vnorms = compute_vnorms(dag)
        reference = oracle.dispense(
            dag, oracle.compute_vnorms(dag), PAPER_LIMITS, objective=objective
        )
        assert_same_assignment(
            reference,
            dispense(dag, vnorms, PAPER_LIMITS, objective=objective),
        )
        assert_same_assignment(
            reference, dagsolve(dag, PAPER_LIMITS, objective=objective)
        )

    @given(
        seed=dag_seeds,
        shape=shapes,
        objective=objectives,
        num=st.integers(min_value=1, max_value=97),
        den=st.integers(min_value=1, max_value=89),
    )
    @settings(max_examples=40, deadline=None)
    def test_restored_vnorms(self, seed, shape, objective, num, den):
        """The plan-cache path: Vnorms round-tripped through
        ``vnorms_to_dict``/``vnorms_from_dict`` (and rescaled by an
        arbitrary factor, so no denominator is the solver's) dispense
        exactly like the oracle."""
        dag = random_dag(seed, shape, max_ratio=99)
        factor = Fraction(num, den)
        stored = vnorms_to_dict(compute_vnorms(dag))
        for table in ("node_vnorm", "node_input_vnorm"):
            stored[table] = {
                key: fraction_to_str(Fraction(value) * factor)
                for key, value in stored[table].items()
            }
        stored["edge_vnorm"] = [
            [src, dst, fraction_to_str(Fraction(value) * factor)]
            for src, dst, value in stored["edge_vnorm"]
        ]
        restored = vnorms_from_dict(stored)
        assert_same_assignment(
            oracle.dispense(dag, restored, PAPER_LIMITS, objective=objective),
            dispense(dag, restored, PAPER_LIMITS, objective=objective),
        )

    @given(
        sep1=st.fractions(min_value=Fraction(1, 100), max_value=200),
        sep2=st.fractions(min_value=Fraction(1, 100), max_value=200),
        sep3=st.fractions(min_value=Fraction(1, 100), max_value=200),
    )
    @settings(max_examples=30, deadline=None)
    def test_measured_constrained_inputs(self, sep1, sep2, sep3):
        """Glycomics partitions through :class:`RuntimePlanner`: each
        measured ``available_volume`` caps the scale exactly as in the
        oracle's forward pass."""
        planner = RuntimePlanner(glycomics.build_dag(), PAPER_LIMITS)
        session = planner.session()
        assignments = session.assign_all(
            {"sep1": sep1, "sep2": sep2, "sep3": sep3}
        )
        for partition in planner.partitions:
            candidate = assignments[partition.index]
            reference = oracle.dispense(
                candidate.dag,
                oracle.compute_vnorms(partition.dag),
                PAPER_LIMITS,
            )
            assert_same_assignment(reference, candidate)

    def test_missing_measurement_rejected_like_oracle(self):
        planner = RuntimePlanner(glycomics.build_dag(), PAPER_LIMITS)
        partition = next(p for p in planner.partitions if p.constrained)
        vnorms = planner.vnorms[partition.index]
        with pytest.raises(DagError) as reference:
            oracle.dispense(partition.dag, vnorms, PAPER_LIMITS)
        with pytest.raises(DagError) as candidate:
            dispense(partition.dag, vnorms, PAPER_LIMITS)
        assert str(candidate.value) == str(reference.value)


class TestErrorParity:
    def test_non_output_target_rejected(self):
        dag = generators.serial_dilution(4)
        some_input = next(iter(dag.inputs())).id
        with pytest.raises(DagError) as reference:
            oracle.compute_vnorms(dag, {some_input: Fraction(2)})
        with pytest.raises(DagError) as candidate:
            compute_vnorms(dag, {some_input: Fraction(2)})
        assert str(candidate.value) == str(reference.value)

    def test_non_positive_target_rejected(self):
        dag = generators.serial_dilution(4)
        output = next(iter(dag.outputs())).id
        with pytest.raises(VolumeError) as reference:
            oracle.compute_vnorms(dag, {output: Fraction(0)})
        with pytest.raises(VolumeError) as candidate:
            compute_vnorms(dag, {output: Fraction(0)})
        assert str(candidate.value) == str(reference.value)


class TestContextInvalidation:
    def test_structural_mutation_drops_cached_context(self):
        dag = generators.serial_dilution(4)
        before = _context(dag)
        assert _context(dag) is before  # cached

        # remove then restore an edge: any structural mutation must
        # rebuild the context
        edge = dag.in_edges(dag.outputs()[0].id)[0]
        removed = dag.remove_edge(*edge.key)
        assert _CONTEXT_KEY not in dag._derived
        dag.add_edge(removed)
        assert _context(dag) is not before

    def test_resolve_after_mutation_matches_reference(self):
        from repro.core.dag import Edge, Node, NodeKind

        dag = generators.fanout_chain(4)
        dagsolve(dag, PAPER_LIMITS)  # warm the cache
        # grow the DAG: a new output mixing two existing outputs
        outputs = [node.id for node in dag.outputs()]
        dag.add_node(Node("blend", NodeKind.MIX))
        dag.add_edge(Edge(outputs[0], "blend", Fraction(1, 2)))
        dag.add_edge(Edge(outputs[1], "blend", Fraction(1, 2)))
        assert_same_assignment(
            oracle.dagsolve(dag, PAPER_LIMITS), dagsolve(dag, PAPER_LIMITS)
        )
