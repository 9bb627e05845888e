"""Unit tests for the assay DAG IR (paper Section 3.1, Figure 2)."""

import importlib
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.certify import certify_plan
from repro.compiler.passes import run_compile
from repro.core import dag as dag_module
from repro.core.cascading import (
    _cascade_in_place,
    find_extreme_mixes,
    stage_factors,
)
from repro.core.dag import (
    AssayDAG,
    Edge,
    Node,
    NodeKind,
    check_structure,
    fractions_from_ratio,
)
from repro.core.dagsolve import _SolveContext, dagsolve
from repro.core.errors import CycleError, DagError, RatioError
from repro.core.limits import PAPER_LIMITS, HardwareLimits
from repro.core.lpmodel import IncrementalLPBuilder
from repro.core.replication import _replicate_in_place
from repro.assays import generators, paper_example

from oracles import structure as structure_oracle


class TestFractionsFromRatio:
    def test_one_to_four(self):
        assert fractions_from_ratio((1, 4)) == [Fraction(1, 5), Fraction(4, 5)]

    def test_three_way(self):
        assert fractions_from_ratio((1, 100, 1)) == [
            Fraction(1, 102),
            Fraction(100, 102),
            Fraction(1, 102),
        ]

    def test_fractions_sum_to_one(self):
        fractions = fractions_from_ratio((3, 5, 7, 11))
        assert sum(fractions) == 1

    def test_rejects_empty(self):
        with pytest.raises(RatioError):
            fractions_from_ratio(())

    def test_rejects_nonpositive(self):
        with pytest.raises(RatioError):
            fractions_from_ratio((1, 0))
        with pytest.raises(RatioError):
            fractions_from_ratio((1, -2))


class TestConstruction:
    def test_duplicate_node_rejected(self):
        dag = AssayDAG()
        dag.add_input("A")
        with pytest.raises(DagError):
            dag.add_input("A")

    def test_edge_to_unknown_node_rejected(self):
        dag = AssayDAG()
        dag.add_input("A")
        with pytest.raises(DagError):
            dag.add_edge(Edge("A", "missing"))

    def test_self_loop_rejected(self):
        dag = AssayDAG()
        dag.add_input("A")
        with pytest.raises(DagError):
            dag.add_edge(Edge("A", "A"))

    def test_parallel_edge_rejected(self):
        dag = AssayDAG()
        dag.add_input("A")
        dag.add_mix("M", {"A": 1})
        with pytest.raises(DagError):
            dag.add_edge(Edge("A", "M", Fraction(1, 2)))

    def test_add_mix_sets_ratio_and_fractions(self):
        dag = AssayDAG()
        dag.add_input("A")
        dag.add_input("B")
        node = dag.add_mix("K", {"A": 1, "B": 4})
        assert node.ratio == (1, 4)
        assert dag.edge("A", "K").fraction == Fraction(1, 5)
        assert dag.edge("B", "K").fraction == Fraction(4, 5)

    def test_add_unary_separator(self):
        dag = AssayDAG()
        dag.add_input("A")
        node = dag.add_unary(
            "S", "A", kind=NodeKind.SEPARATE, unknown_volume=True
        )
        assert node.unknown_volume
        assert node.output_fraction is None

    def test_remove_node_removes_incident_edges(self):
        dag = paper_example.build_dag()
        dag.remove_node("L")
        assert not dag.has_edge("B", "L")
        assert not dag.has_edge("L", "M")
        dag_ids = dag.node_ids()
        assert "L" not in dag_ids


class TestQueries:
    def test_figure2_shape(self, fig2_dag):
        assert fig2_dag.node_count == 7
        assert fig2_dag.edge_count == 8
        assert {n.id for n in fig2_dag.inputs()} == {"A", "B", "C"}
        assert {n.id for n in fig2_dag.outputs()} == {"M", "N"}

    def test_degrees(self, fig2_dag):
        assert fig2_dag.out_degree("B") == 2
        assert fig2_dag.in_degree("M") == 2
        assert fig2_dag.predecessors("M") == ["K", "L"]
        assert set(fig2_dag.successors("B")) == {"K", "L"}

    def test_ancestors_is_backward_slice(self, fig2_dag):
        assert set(fig2_dag.ancestors("M")) == {"A", "B", "C", "K", "L"}
        assert set(fig2_dag.ancestors("K")) == {"A", "B"}
        assert fig2_dag.ancestors("A") == []

    def test_descendants(self, fig2_dag):
        assert set(fig2_dag.descendants("B")) == {"K", "L", "M", "N"}
        assert fig2_dag.descendants("N") == []

    def test_contains_and_len(self, fig2_dag):
        assert "K" in fig2_dag
        assert "Z" not in fig2_dag
        assert len(fig2_dag) == 7


class TestTopologicalOrder:
    def test_respects_edges(self, fig2_dag):
        order = fig2_dag.topological_order()
        position = {node_id: i for i, node_id in enumerate(order)}
        for edge in fig2_dag.edges():
            assert position[edge.src] < position[edge.dst]

    def test_deterministic(self, fig2_dag):
        assert fig2_dag.topological_order() == fig2_dag.topological_order()

    def test_cycle_detection(self):
        dag = AssayDAG()
        dag.add_node(Node("a", NodeKind.MIX))
        dag.add_node(Node("b", NodeKind.MIX))
        dag.add_edge(Edge("a", "b"))
        dag.add_edge(Edge("b", "a"))
        with pytest.raises(CycleError):
            dag.topological_order()

    def test_reverse_order(self, fig2_dag):
        forward = fig2_dag.topological_order()
        assert fig2_dag.reverse_topological_order() == list(reversed(forward))


class TestValidate:
    def test_figure2_validates(self, fig2_dag):
        fig2_dag.validate()  # no exception

    def test_fractions_must_sum_to_one(self):
        dag = AssayDAG()
        dag.add_input("A")
        dag.add_input("B")
        dag.add_node(Node("M", NodeKind.MIX))
        dag.add_edge(Edge("A", "M", Fraction(1, 2)))
        dag.add_edge(Edge("B", "M", Fraction(1, 3)))
        with pytest.raises(RatioError):
            dag.validate()

    def test_excess_node_must_be_sink(self):
        dag = AssayDAG()
        dag.add_input("A")
        dag.add_node(Node("X", NodeKind.EXCESS))
        dag.add_node(Node("M", NodeKind.MIX))
        dag.add_edge(Edge("A", "X", is_excess=False))
        with pytest.raises(DagError):
            dag.validate()

    def test_excess_edge_requires_excess_fraction(self):
        dag = AssayDAG()
        dag.add_node(Node("P", NodeKind.MIX))  # excess_fraction defaults to 0
        dag.add_input("A")
        dag.add_edge(Edge("A", "P"))
        dag.add_node(Node("X", NodeKind.EXCESS))
        dag.add_edge(Edge("P", "X", is_excess=True))
        with pytest.raises(DagError):
            dag.validate()

    def test_unknown_volume_must_not_have_output_fraction(self):
        with pytest.raises(RatioError):
            # excess fraction out of range also trips the Node constructor
            Node("n", NodeKind.MIX, excess_fraction=Fraction(3, 2))
        dag = AssayDAG()
        dag.add_input("A")
        node = dag.add_unary("S", "A", kind=NodeKind.SEPARATE)
        node.unknown_volume = True  # inconsistent: fraction still set
        with pytest.raises(DagError):
            dag.validate()

    @staticmethod
    def _edge_into_input(kind: NodeKind) -> AssayDAG:
        dag = AssayDAG("into-input")
        dag.add_input("A")
        dag.add_node(Node("B", kind))
        dag.add_mix("M", {"A": 1, "B": 1})
        dag.add_edge(Edge("A", "B", 1))
        return dag

    @pytest.mark.parametrize(
        "kind", [NodeKind.INPUT, NodeKind.CONSTRAINED_INPUT]
    )
    def test_edge_into_an_input_is_rejected(self, kind):
        """An input kind takes no inbound edge: the whole-DAG check, the
        incremental one after a passing check, and a compile of the DAG
        all end in the DagError instead of a crash in DAGSolve."""
        dag = self._edge_into_input(kind)
        message = "input node 'B' must have no inbound edges"
        with pytest.raises(DagError, match=message):
            dag.validate()
        with pytest.raises(DagError, match=message):
            structure_oracle.check_structure(dag)
        dag.remove_edge("A", "B")
        dag.validate()
        dag.add_edge(Edge("A", "B", 1))
        with pytest.raises(DagError, match=message):
            dag.validate()
        with pytest.raises(DagError, match=message):
            run_compile(dag=self._edge_into_input(kind))


class TestCopySubgraph:
    def test_copy_is_deep_for_structure(self, fig2_dag):
        clone = fig2_dag.copy()
        clone.remove_node("N")
        assert "N" in fig2_dag
        assert "N" not in clone

    def test_copy_preserves_meta_independently(self, fig2_dag):
        clone = fig2_dag.copy()
        clone.node("K").meta["tag"] = 1
        assert "tag" not in fig2_dag.node("K").meta

    def test_subgraph_inner_edges_only(self, fig2_dag):
        sub = fig2_dag.subgraph(["A", "B", "K"])
        assert sub.node_count == 3
        assert sub.edge_count == 2
        assert sub.has_edge("A", "K")
        assert not sub.has_edge("B", "L")

    def test_subgraph_unknown_node_rejected(self, fig2_dag):
        with pytest.raises(DagError):
            fig2_dag.subgraph(["A", "nope"])


class TestDot:
    def test_to_dot_mentions_every_node_and_edge(self, fig2_dag):
        dot = fig2_dag.to_dot()
        for node in fig2_dag.nodes():
            assert f'"{node.id}"' in dot
        assert '"A" -> "K"' in dot
        assert dot.startswith("digraph")


class TestTopologicalOrderCache:
    def test_repeated_calls_return_equal_fresh_lists(self):
        dag = paper_example.build_dag()
        first = dag.topological_order()
        second = dag.topological_order()
        assert first == second
        assert first is not second          # callers may mutate their copy
        first.reverse()
        assert dag.topological_order() == second

    def test_add_node_invalidates(self):
        dag = paper_example.build_dag()
        before = dag.topological_order()
        dag.add_mix("tail", {"M": 1})
        after = dag.topological_order()
        assert "tail" in after
        assert "tail" not in before

    def test_add_edge_invalidates(self):
        dag = AssayDAG()
        dag.add_input("A")
        dag.add_input("B")
        dag.add_node(Node("M", NodeKind.MIX, ratio=(1, 1)))
        dag.add_edge(Edge("A", "M", Fraction(1, 2)))
        order = dag.topological_order()
        assert order.index("A") < order.index("M")
        dag.add_edge(Edge("B", "M", Fraction(1, 2)))
        order = dag.topological_order()
        assert order.index("B") < order.index("M")

    def test_remove_invalidates(self):
        dag = AssayDAG()
        dag.add_input("A")
        dag.add_mix("M", {"A": 1})
        dag.topological_order()
        dag.remove_edge("A", "M")
        dag.remove_node("M")
        assert dag.topological_order() == ["A"]

    def test_copy_and_subgraph_not_poisoned(self):
        dag = paper_example.build_dag()
        dag.topological_order()
        clone = dag.copy()
        clone.add_mix("extra", {"M": 1})
        assert "extra" in clone.topological_order()
        assert "extra" not in dag.topological_order()


# ---------------------------------------------------------------------------
# the structural-check memo
# ---------------------------------------------------------------------------
@pytest.fixture
def checks(monkeypatch):
    """Record the caller of every structural check that runs."""
    callers: list[str] = []
    original = dag_module.check_structure

    def counting(dag):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(dag)

    monkeypatch.setattr(dag_module, "check_structure", counting)
    monkeypatch.setattr(
        importlib.import_module("repro.analysis.certify.plan"),
        "check_structure",
        counting,
    )
    return callers


@pytest.fixture
def node_checks(monkeypatch):
    """Record the id of every node the per-node rules check."""
    checked: list[str] = []
    original = dag_module._check_node

    def recording(dag, node):
        checked.append(node.id)
        return original(dag, node)

    monkeypatch.setattr(dag_module, "_check_node", recording)
    return checked


def _with_loose_nodes() -> AssayDAG:
    """Figure 2 plus an input ``Z`` feeding a unary ``T`` and an unfed
    unary ``U``, validated."""
    dag = paper_example.build_dag()
    dag.add_input("Z")
    dag.add_unary("T", "Z")
    dag.add_node(Node("U", NodeKind.HEAT))
    dag.validate()
    return dag


#: per mutation kind: a clean mutation of ``_with_loose_nodes()`` and the
#: nodes it touches.
MUTATIONS = {
    "add_node": (lambda dag: dag.add_input("Y"), {"Y"}),
    "add_edge": (lambda dag: dag.add_edge(Edge("Z", "U")), {"Z", "U"}),
    "remove_edge": (lambda dag: dag.remove_edge("Z", "T"), {"Z", "T"}),
    "remove_node": (lambda dag: dag.remove_node("N"), {"L", "C"}),
    "set_excess_fraction": (
        lambda dag: dag.set_excess_fraction("K", 0),
        {"K"},
    ),
}

#: per mutation kind: a mutation of ``_with_loose_nodes()`` that breaks a
#: structural rule, and the message of the error it must raise.
FAULTS = {
    "add_node": (
        lambda dag: dag.add_node(Node("V", NodeKind.HEAT, output_fraction=None)),
        "node 'V': known-volume node lacks an output_fraction",
    ),
    "add_edge": (
        lambda dag: dag.add_edge(Edge("Z", "K", Fraction(1, 2))),
        "node 'K': inbound fractions sum to 3/2, expected 1",
    ),
    "remove_edge": (
        lambda dag: dag.remove_edge("A", "K"),
        "node 'K': inbound fractions sum to 4/5, expected 1",
    ),
    "remove_node": (
        lambda dag: dag.remove_node("C"),
        "node 'L': inbound fractions sum to 2/3, expected 1",
    ),
    "set_excess_fraction": (
        lambda dag: dag.set_excess_fraction("K", 1),
        "node 'K': excess_fraction must be in [0, 1), got 1",
    ),
}


class TestValidationMemo:
    def test_a_validated_version_is_not_checked_again(
        self, checks, node_checks
    ):
        """The first check covers the whole DAG; the version it passed is
        not checked again, wholly or node by node."""
        dag = AssayDAG()
        dag.add_input("A")
        dag.add_input("B")
        dag.add_mix("K", {"A": 1, "B": 4})
        dag.validate()
        assert checks == ["validate"]
        assert sorted(node_checks) == sorted(dag.node_ids())
        del checks[:], node_checks[:]
        dag.validate()
        dag.validate()
        dag.topological_order()
        dag.validate()
        assert checks == []
        assert node_checks == []

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_each_mutation_drops_the_memo(self, checks, node_checks, mutation):
        """A fault introduced through each kind of mutation is raised by
        the next validate(), as the whole-DAG check words it, again on
        every call; a clean mutation of the same kind re-checks exactly
        the nodes it touched, once, and no whole-DAG check runs."""
        faulty, message = FAULTS[mutation]
        dag = _with_loose_nodes()
        faulty(dag)
        for __ in range(2):
            with pytest.raises((DagError, RatioError)) as raised:
                dag.validate()
            assert str(raised.value) == message
        assert _outcome(dag.validate) == _outcome(
            lambda: structure_oracle.check_structure(dag)
        )

        clean, touched = MUTATIONS[mutation]
        dag = _with_loose_nodes()
        del checks[:], node_checks[:]
        clean(dag)
        dag.validate()
        dag.validate()
        assert checks == []
        assert sorted(node_checks) == sorted(touched)
        assert _outcome(lambda: structure_oracle.check_structure(dag)) == (
            "valid",
        )

    def test_a_zeroed_cascade_share_is_raised(self):
        """Zeroing a stage's discarded share breaks a rule of its excess
        edge, not of the node."""
        dag = _cascaded_dag()
        stage = next(edge.src for edge in dag.edges() if edge.is_excess)
        dag.set_excess_fraction(stage, 0)
        with pytest.raises(DagError, match="excess_fraction is 0"):
            dag.validate()

    def test_a_new_cycle_is_raised(self):
        """Acyclicity comes from the topological order, which every edge
        added after the last check recomputes."""
        dag = _with_loose_nodes()
        dag.add_edge(Edge("M", "A"))
        with pytest.raises(CycleError):
            dag.validate()

    def test_a_failing_check_is_not_memoized(self, checks):
        dag = AssayDAG()
        dag.add_input("A")
        dag.add_node(Node("M", NodeKind.MIX))
        dag.add_edge(Edge("A", "M", Fraction(1, 2)))
        for __ in range(2):
            with pytest.raises(RatioError):
                dag.validate()
        assert checks == ["validate", "validate"]

    def test_set_excess_fraction_normalizes_and_drops_derived(self):
        dag = paper_example.build_dag()
        dagsolve(dag, PAPER_LIMITS)
        assert dag._derived
        dag.set_excess_fraction("K", "1/4")
        assert dag.node("K").excess_fraction == Fraction(1, 4)
        assert not dag._derived

    def test_figure2_compile_checks_structure_twice(self, checks):
        """Once when build-dag lowers the source, once in certify."""
        run_compile(source=paper_example.SOURCE, certify=True)
        assert checks == ["validate", "_check_structure"]


def _outcome(check) -> tuple:
    try:
        check()
    except (DagError, RatioError) as error:
        return (type(error), str(error))
    return ("valid",)


def _two_input_mixes(dag: AssayDAG) -> list[str]:
    mixes = []
    for node in dag.nodes():
        inbound = [e for e in dag.in_edges(node.id) if not e.is_excess]
        if (
            node.kind is NodeKind.MIX
            and len(inbound) == 2
            and inbound[0].fraction != inbound[1].fraction
            and f"{node.id}.cascade1" not in dag
        ):
            mixes.append(node.id)
    return mixes


def _replicable(dag: AssayDAG) -> list[str]:
    return [
        node.id
        for node in dag.nodes()
        if node.kind not in (NodeKind.EXCESS, NodeKind.CONSTRAINED_INPUT)
        and not node.unknown_volume
        and dag.out_degree(node.id) >= 2
        and not any(e.is_excess for e in dag.out_edges(node.id))
    ]


class TestMemoAcrossRewrites:
    @given(
        seed=st.integers(0, 10_000),
        shape=st.tuples(
            st.integers(2, 4), st.integers(1, 3), st.integers(1, 3)
        ),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_memoized_and_uncached_checks_agree(self, seed, shape, data):
        """Random cascade and replicate rewrites, in place on one DAG the
        way the Figure 6 loop applies them, with a validation between
        rewrites: the memoized verdict always equals the uncached one."""
        dag = generators.layered_random_dag(
            *shape, seed=seed, max_ratio=9, separator_probability=0.3
        )
        registry: dict[tuple, str] = {}
        for __ in range(data.draw(st.integers(1, 4), label="rewrites")):
            assert _outcome(dag.validate) == _outcome(
                lambda: check_structure(dag)
            )
            mixes = _two_input_mixes(dag)
            replicable = _replicable(dag)
            choices = (["cascade"] if mixes else []) + (
                ["replicate"] if replicable else []
            )
            if not choices:
                break
            if data.draw(st.sampled_from(choices)) == "cascade":
                node_id = data.draw(st.sampled_from(mixes))
                minor = min(
                    e.fraction
                    for e in dag.in_edges(node_id)
                    if not e.is_excess
                )
                factors = stage_factors(
                    1 / minor, data.draw(st.integers(2, 3))
                )
                _cascade_in_place(
                    dag, node_id, factors, share_registry=registry
                )
            else:
                node_id = data.draw(st.sampled_from(replicable))
                uses = dag.out_degree(node_id)
                copies = data.draw(st.integers(2, min(3, uses)))
                _replicate_in_place(dag, node_id, copies, weights=None)
        assert _outcome(dag.validate) == _outcome(lambda: check_structure(dag))

    def test_a_shared_cascade_stage_drops_the_memo(self, checks, node_checks):
        """Two mixes with the same sources and skew share a stage under
        the waste objective's registry; the reuse edits the stage's
        ``excess_fraction`` in place."""
        dag = AssayDAG()
        dag.add_input("A")
        dag.add_input("B")
        dag.add_mix("M1", {"A": 1, "B": 99})
        dag.add_mix("M2", {"A": 1, "B": 99})
        registry: dict[tuple, str] = {}
        factors = [Fraction(10), Fraction(10)]
        _cascade_in_place(dag, "M1", factors, share_registry=registry)
        (stage,) = registry.values()
        dag.validate()
        before = dag.node(stage).excess_fraction
        stage_record = dag.record(stage)
        del checks[:]
        _cascade_in_place(dag, "M2", factors, share_registry=registry)
        assert dag.node(stage).excess_fraction != before
        dag.validate()
        assert checks == []
        assert stage in node_checks
        assert dag.record(stage) != stage_record
        assert dag.record(stage).excess_fraction == dag.node(
            stage
        ).excess_fraction


def _result(compute) -> tuple:
    try:
        return ("ok", compute())
    except (DagError, RatioError) as error:
        return (type(error), str(error))


def _context_view(context) -> tuple:
    return (
        context.rows,
        context.output_ids,
        context.nodes_visited,
        context.edges_visited,
    )


def _assert_matches_the_walks(dag: AssayDAG) -> None:
    """The validation verdict, DAGSolve's rows, the LP structure table
    and (on a valid DAG) the extreme-mix scan equal the whole-DAG walks
    of ``oracles.structure``."""
    assert _outcome(dag.validate) == _outcome(
        lambda: structure_oracle.check_structure(dag)
    )
    assert _result(lambda: _context_view(_SolveContext(dag))) == _result(
        lambda: _context_view(structure_oracle.SolveContext(dag))
    )
    assert IncrementalLPBuilder._structure(
        dag
    ) == structure_oracle.lp_structure(dag)
    if _outcome(dag.validate) == ("valid",):
        for limits, slack in _EXTREME_SCANS:
            assert find_extreme_mixes(
                dag, limits, slack=slack
            ) == structure_oracle.extreme_mixes(dag, limits, slack=slack)


#: (limits, slack) pairs the extreme-mix scan is compared under: the
#: paper's 1:999 limit, and a 1:9 limit that most random mixes reach.
_EXTREME_SCANS = (
    (PAPER_LIMITS, Fraction(1)),
    (PAPER_LIMITS, Fraction(3)),
    (HardwareLimits(max_capacity=100, least_count=10), Fraction(1)),
)


#: rewrites that may leave a DAG half rewritten or structurally broken;
#: the walks are compared on whatever they leave.
_STEP_ERRORS = (DagError, RatioError, ValueError)

_random_dags = st.builds(
    lambda seed, shape: generators.layered_random_dag(
        *shape, seed=seed, max_ratio=9, separator_probability=0.3
    ),
    st.integers(0, 10_000),
    st.tuples(st.integers(2, 4), st.integers(1, 3), st.integers(1, 3)),
)


class TestRecordsAcrossRewrites:
    @given(
        dag=st.one_of(
            _random_dags, st.builds(generators.enzyme_n, st.integers(3, 7))
        ),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_every_version_matches_the_whole_dag_walks(self, dag, data):
        """In-place cascades, replications, node removals and excess
        edits, with one copy taken partway: after every step each
        consumer's view equals a fresh walk, on the copy and on the DAG
        it was copied from."""
        registry: dict[tuple, str] = {}
        original = None
        _assert_matches_the_walks(dag)
        for __ in range(data.draw(st.integers(1, 6), label="steps")):
            steps = ["remove_node", "set_excess_fraction"]
            mixes = _two_input_mixes(dag)
            replicable = _replicable(dag)
            steps += ["cascade"] if mixes else []
            steps += ["replicate"] if replicable else []
            steps += ["copy"] if original is None else []
            step = data.draw(st.sampled_from(steps), label="step")
            try:
                if step == "cascade":
                    node_id = data.draw(st.sampled_from(mixes))
                    minor = min(
                        e.fraction
                        for e in dag.in_edges(node_id)
                        if not e.is_excess
                    )
                    factors = stage_factors(
                        1 / minor, data.draw(st.integers(2, 3))
                    )
                    _cascade_in_place(
                        dag, node_id, factors, share_registry=registry
                    )
                elif step == "replicate":
                    node_id = data.draw(st.sampled_from(replicable))
                    uses = dag.out_degree(node_id)
                    copies = data.draw(st.integers(2, min(3, uses)))
                    _replicate_in_place(dag, node_id, copies, weights=None)
                elif step == "remove_node":
                    dag.remove_node(
                        data.draw(st.sampled_from(dag.node_ids()))
                    )
                elif step == "set_excess_fraction":
                    # cascade stages (excess producers) weigh double
                    producers = [
                        edge.src for edge in dag.edges() if edge.is_excess
                    ]
                    dag.set_excess_fraction(
                        data.draw(st.sampled_from(dag.node_ids() + producers)),
                        data.draw(st.sampled_from(("0", "1/3", "1/2", "9/10"))),
                    )
                else:
                    original, dag = dag, dag.copy()
            except _STEP_ERRORS:
                pass
            _assert_matches_the_walks(dag)
            if not dag.node_count:
                break
        if original is not None:
            _assert_matches_the_walks(original)


# ---------------------------------------------------------------------------
# trusted copies
# ---------------------------------------------------------------------------
def _cascaded_dag() -> AssayDAG:
    """A DAG with excess nodes, excess edges and list-valued meta."""
    dag = paper_example.build_dag()
    dag.add_input("D")
    dag.add_mix("P", {"M": 1, "D": 99})
    _cascade_in_place(dag, "P", [Fraction(10), Fraction(10)], share_registry={})
    dag.validate()
    return dag


class TestTrustedCopies:
    def test_copies_equal_their_originals_in_order(self):
        dag = _cascaded_dag()
        clone = dag.copy()
        assert clone.node_ids() == dag.node_ids()
        assert [e.key for e in clone.edges()] == [e.key for e in dag.edges()]
        for node in dag.nodes():
            copied = clone.node(node.id)
            assert copied == node and copied is not node
            assert clone.predecessors(node.id) == dag.predecessors(node.id)
            assert clone.successors(node.id) == dag.successors(node.id)
        for edge in dag.edges():
            copied = clone.edge(*edge.key)
            assert copied == edge and copied is not edge
        assert clone.topological_order() == dag.topological_order()
        check_structure(clone)

    def test_copies_own_their_meta_and_adjacency(self):
        dag = _cascaded_dag()
        clone = dag.copy()
        for node in dag.nodes():
            assert clone.node(node.id).meta is not node.meta
        clone.node("P").meta["tag"] = 1
        assert "tag" not in dag.node("P").meta
        clone.remove_node("N")
        assert dag.successors("L") == ["M", "N"]
        assert clone.successors("L") == ["M"]

    def test_node_and_edge_copies(self):
        node = Node("K", NodeKind.MIX, ratio=(1, 4), meta={"line": 3})
        copied = node.copy()
        assert copied == node and copied.meta is not node.meta
        edge = Edge("A", "K", Fraction(1, 5))
        assert edge.copy() == edge and edge.copy() is not edge


class TestInPlaceRangeEdits:
    """A trusted copy no longer re-runs the constructor checks, so an
    in-place edit that breaks a range is caught by the structural check,
    in the DAG and in every copy, and by certify."""

    @staticmethod
    def _coverage(dag, assignment) -> list[str]:
        findings, __ = certify_plan(dag, assignment, PAPER_LIMITS)
        return [d.message for d in findings if d.code == "PLAN-COVERAGE"]

    def test_excess_fraction_of_one(self):
        dag = paper_example.build_dag()
        assignment = dagsolve(dag, PAPER_LIMITS)
        dag.node("K").excess_fraction = Fraction(1)
        clone = dag.copy()
        for graph in (dag, clone):
            with pytest.raises(RatioError, match=r"excess_fraction must be"):
                check_structure(graph)
            (message,) = self._coverage(graph, assignment)
            assert "excess_fraction must be in [0, 1)" in message

    def test_edge_fraction_of_zero(self):
        dag = _cascaded_dag()
        assignment = dagsolve(dag, PAPER_LIMITS)
        excess = next(e for e in dag.edges() if e.is_excess)
        excess.fraction = Fraction(0)
        clone = dag.copy()
        for graph in (dag, clone):
            with pytest.raises(RatioError, match=r"fraction must be positive"):
                check_structure(graph)
            (message,) = self._coverage(graph, assignment)
            assert "fraction must be positive" in message
