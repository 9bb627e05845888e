"""The least-volume bound rules out only LPs that have no solution.

:meth:`repro.core.lpmodel.IncrementalLPBuilder.least_volume_violation`
derives, in whole least counts rounded down, the least volume each node
must take under constraint classes 1-5, and names a node whose least
volume exceeds its capacity.  The Figure 6 LP stage then records the
attempt as failed without building the model.  That is sound only if the
bound never over-estimates: whenever it names a node, the full
:func:`~repro.core.lpmodel.build_lp_model` model must be infeasible for
HiGHS (:func:`repro.core.lp.solve_model`) and for the ``linprog``
reference (:mod:`oracles.lp_linprog`).
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st

from oracles import lp_linprog
from repro.assays import enzyme, generators, gradients
from repro.core.dag import AssayDAG, Edge, Node, NodeKind
from repro.core.errors import DagError, InfeasibleError
from repro.core.limits import PAPER_LIMITS, HardwareLimits
from repro.core.lp import solve_model
from repro.core.lpmodel import IncrementalLPBuilder, build_lp_model

COARSE_LIMITS = HardwareLimits(max_capacity=100, least_count=1)
SOURCES = (NodeKind.INPUT, NodeKind.CONSTRAINED_INPUT)


def violation(dag, limits=PAPER_LIMITS, **options) -> str | None:
    return IncrementalLPBuilder(limits, **options).least_volume_violation(dag)


def assert_no_lp_solution(dag, limits, **options) -> None:
    """HiGHS and ``linprog`` both prove the full model infeasible."""
    model = build_lp_model(dag, limits, **options)
    with pytest.raises(InfeasibleError):
        solve_model(model)
    with pytest.raises(InfeasibleError):
        lp_linprog.solve_model(model)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------
@st.composite
def layered_dags(draw) -> AssayDAG:
    """A layered random DAG, with up to two extreme mixes injected."""
    dag = generators.layered_random_dag(
        *draw(
            st.tuples(st.integers(2, 4), st.integers(1, 3), st.integers(1, 3))
        ),
        seed=draw(st.integers(0, 10_000)),
        max_ratio=draw(st.sampled_from([9, 99])),
        separator_probability=draw(st.sampled_from([0.0, 0.3])),
    )
    for index in range(draw(st.integers(0, 2))):
        minor, major = draw(
            st.lists(
                st.sampled_from(dag.node_ids()),
                min_size=2,
                max_size=2,
                unique=True,
            )
        )
        ratio = draw(st.sampled_from([99, 399, 999, 9999]))
        dag.add_mix(f"extreme{index}", {minor: 1, major: ratio})
    return dag


@st.composite
def gradient_dags(draw) -> AssayDAG:
    if draw(st.booleans()):
        return gradients.gradient_corpus()[draw(st.integers(0, 6))]
    return gradients.dilution_gradient(
        draw(st.integers(1, 5)),
        draw(st.sampled_from([10, 100, 2_000, 10_000, 100_000])),
        replicates=draw(st.integers(1, 3)),
    )


base_dags = st.one_of(
    layered_dags(),
    st.builds(generators.enzyme_n, st.integers(2, 3)),
    st.builds(
        generators.serial_dilution, st.integers(1, 6), st.integers(2, 200)
    ),
    gradient_dags(),
)


@st.composite
def annotated_dags(draw) -> AssayDAG:
    """A base DAG with random FU minimums, per-node capacities and
    constrained inputs mixed in."""
    dag = draw(base_dags)
    for index in range(draw(st.integers(0, 2))):
        source = f"constrained{index}"
        partner = draw(st.sampled_from(dag.node_ids()))
        dag.add_node(
            Node(
                source,
                NodeKind.CONSTRAINED_INPUT,
                available_volume=Fraction(draw(st.integers(1, 1000)), 10),
            )
        )
        parts = {
            source: draw(st.integers(1, 9)),
            partner: draw(st.integers(1, 999)),
        }
        dag.add_mix(f"constrained_mix{index}", parts)
    operations = [n.id for n in dag.nodes() if n.kind not in SOURCES]
    for node_id in draw(st.lists(st.sampled_from(operations), max_size=3)):
        dag.node(node_id).min_volume = Fraction(draw(st.integers(1, 600)), 10)
    for node_id in draw(st.lists(st.sampled_from(dag.node_ids()), max_size=3)):
        dag.node(node_id).capacity = Fraction(draw(st.integers(1, 1000)), 10)
    dag.validate()
    return dag


# ---------------------------------------------------------------------------
# soundness
# ---------------------------------------------------------------------------
class TestSoundness:
    @given(
        dag=annotated_dags(),
        limits=st.sampled_from([PAPER_LIMITS, COARSE_LIMITS]),
        objective=st.sampled_from(["default", "waste"]),
        min_volume_bounds=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_a_ruled_out_dag_has_no_lp_solution(
        self, dag, limits, objective, min_volume_bounds
    ):
        options = {
            "objective": objective,
            "min_volume_bounds": min_volume_bounds,
        }
        reason = violation(dag, limits, **options)
        event("ruled out" if reason else "passed to the solver")
        if reason is not None:
            assert_no_lp_solution(dag, limits, **options)

    @pytest.mark.parametrize(
        "dag",
        [
            enzyme.build_dag(),
            generators.enzyme_n(5),
            generators.serial_dilution(4, 1000),
            *gradients.gradient_corpus()[2:5],
        ],
        ids=lambda dag: dag.name,
    )
    def test_the_paper_families_it_rules_out(self, dag):
        assert violation(dag) is not None
        assert_no_lp_solution(dag, PAPER_LIMITS)


# ---------------------------------------------------------------------------
# what the bound reads
# ---------------------------------------------------------------------------
def _two_input_mix(major: int) -> AssayDAG:
    dag = AssayDAG()
    dag.add_input("A")
    dag.add_input("B")
    dag.add_mix("M", {"A": 1, "B": major})
    return dag


class TestReadings:
    def test_an_extreme_ratio_names_the_mix(self):
        """The introduction's 1:399 mix on max 100 / least count 1."""
        assert violation(_two_input_mix(399), COARSE_LIMITS) == (
            "node 'M' needs at least 400 nl, over its capacity of 100 nl"
        )

    def test_a_mild_ratio_passes(self):
        assert violation(_two_input_mix(99), COARSE_LIMITS) is None

    def test_the_least_count_sets_the_unit(self):
        assert violation(_two_input_mix(399), PAPER_LIMITS) is None
        assert violation(_two_input_mix(1000), PAPER_LIMITS) == (
            "node 'M' needs at least 100.1 nl, over its capacity of 100 nl"
        )

    def test_a_node_capacity(self):
        dag = _two_input_mix(99)
        dag.node("M").capacity = Fraction(99)
        assert violation(dag, COARSE_LIMITS) == (
            "node 'M' needs at least 100 nl, over its capacity of 99 nl"
        )

    def test_an_fu_minimum_over_capacity(self):
        dag = _two_input_mix(1)
        dag.node("M").min_volume = Fraction(150)
        assert "node 'M' needs at least 150 nl" in violation(dag)
        # the FU-minimum row holds with or without the class-1 bounds
        assert violation(dag, min_volume_bounds=False) is not None

    def test_a_single_edge_minimum_is_a_class_1_bound(self):
        dag = AssayDAG()
        dag.add_input("A")
        dag.add_unary("H", "A", min_volume=150)
        assert "node 'H' needs at least 150 nl" in violation(dag)
        assert violation(dag, min_volume_bounds=False) is None

    def test_an_output_fraction_scales_the_supply(self):
        """A separator keeping 1/10 must take ten times what it supplies."""
        dag = AssayDAG()
        dag.add_input("A")
        dag.add_unary(
            "S", "A", kind=NodeKind.SEPARATE, output_fraction=Fraction(1, 10)
        )
        dag.add_unary("H", "S", min_volume=11)
        assert violation(dag) == (
            "node 'S' needs at least 110 nl, over its capacity of 100 nl"
        )
        dag.node("H").min_volume = Fraction(10)
        assert violation(dag) is None

    def test_a_constrained_input_is_capped_by_its_available_volume(self):
        dag = AssayDAG()
        dag.add_node(
            Node("C", NodeKind.CONSTRAINED_INPUT, available_volume=Fraction(5))
        )
        dag.add_input("B")
        dag.add_mix("M", {"C": 1, "B": 1})
        dag.node("M").min_volume = Fraction(12)
        assert violation(dag) == (
            "node 'C' needs at least 6 nl, over its capacity of 5 nl"
        )

    def test_the_uses_of_a_shared_input_add_up(self):
        """Each use alone fits; together they overdraw the diluent."""
        dag = gradients.dilution_gradient(3, 100)
        for node in dag.nodes():
            if node.kind is NodeKind.MIX:
                node.min_volume = Fraction(40)
        assert violation(dag).startswith("node 'diluent' needs at least")
        assert_no_lp_solution(dag, PAPER_LIMITS)

    def test_an_edge_into_a_source_is_rejected(self):
        """A source takes no inbound edge, so the sweep never reads an
        edge whose consumer it has not swept: the DAG fails validation
        before the bound or the model reads it."""
        dag = _two_input_mix(1)
        dag.add_edge(Edge("A", "B", Fraction(1)))
        with pytest.raises(DagError, match="input node 'B'"):
            violation(dag)
        with pytest.raises(DagError, match="input node 'B'"):
            build_lp_model(dag, PAPER_LIMITS)

    def test_the_bound_is_only_a_necessary_condition(self):
        """Classes 1-5 fit; the class-6 output band makes the LP infeasible,
        which only the solver sees."""
        dag = AssayDAG()
        dag.add_input("A")
        dag.add_input("B")
        dag.add_unary("big", "A", min_volume=50)
        dag.add_unary("small", "B", capacity=10)
        assert violation(dag) is None
        assert_no_lp_solution(dag, PAPER_LIMITS)

    def test_without_class_1_bounds_raw_enzyme_passes(self):
        """The runtime benchmark's setting: only FU minimums remain."""
        dag = enzyme.build_dag()
        assert violation(dag) is not None
        assert violation(dag, min_volume_bounds=False) is None
