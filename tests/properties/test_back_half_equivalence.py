"""Property-based equivalence: the integer back half vs its Fraction oracles.

After the hierarchy, a compile rounds the plan (:mod:`repro.core.rounding`)
and certifies it (:mod:`repro.analysis.certify.plan`) in integer
least-count arithmetic.  :mod:`oracles.rounding` and
:mod:`oracles.certify_plan` are the same passes written out in
:class:`fractions.Fraction`.  These properties pin the contract between
them: over random layered DAGs (with separators, and with the paper's
``output_fraction`` 1/2), DAGSolve and LP assignments (the LP's slack is
positive), hand-built tables off the least-count grid (1/20 nl, 1/3 nl,
one least count either way, negative volumes) and tables with entries
missing, the rounded tables are equal value for value and in key order,
and the plan checker reports the same findings, word for word, with the
same metrics.
"""

import dataclasses
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.certify import certify_plan
from repro.assays import enzyme, generators, glucose
from repro.compiler.codegen import CodegenError
from repro.compiler.passes import run_compile
from repro.core.dag import AssayDAG, NodeKind
from repro.core.dagsolve import dagsolve
from repro.core.errors import VolumeError
from repro.core.limits import PAPER_LIMITS
from repro.core.ilp import ilp_solve
from repro.core.lp import assignment_from_edge_volumes, lp_solve
from repro.core.rounding import (
    max_ratio_error,
    round_assignment,
    round_assignment_ratio_preserving,
)
from repro.core.serde import assignment_from_dict, assignment_to_dict

from oracles import certify_plan as plan_oracle
from oracles import dagsolve as dagsolve_oracle
from oracles import rounding as rounding_oracle

LEAST = PAPER_LIMITS.least_count
#: hand-built offsets: one least count either way, off-grid steps, zero.
OFFSETS = (LEAST, -LEAST, Fraction(1, 20), Fraction(-1, 20), Fraction(1, 3),
           Fraction(-1, 3), Fraction(0))

dag_seeds = st.integers(min_value=0, max_value=5000)
shapes = st.tuples(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
)
separators = st.sampled_from([0.0, 0.4])
halves = st.booleans()


def random_dag(seed, shape, separator_probability=0.0, half=False, max_ratio=9):
    dag = generators.layered_random_dag(
        *shape,
        seed=seed,
        max_ratio=max_ratio,
        separator_probability=separator_probability,
    )
    if half:
        for node in dag.nodes():
            if node.kind is NodeKind.SEPARATE:
                node.output_fraction = Fraction(1, 2)
    return dag


# ---------------------------------------------------------------------------
# rounding
# ---------------------------------------------------------------------------
def assert_same_rounding(candidate, reference):
    for table in ("node_volume", "node_input_volume", "edge_volume"):
        got = getattr(candidate, table)
        want = getattr(reference, table)
        assert list(got.items()) == list(want.items()), table
        assert all(type(value) is Fraction for value in got.values()), table
    assert candidate.method == reference.method
    assert candidate.meta == reference.meta
    assert candidate.tolerance == reference.tolerance
    assert candidate.scale == reference.scale
    assert candidate.violations() == reference.violations()
    assert_oracle_verdicts(candidate)
    assert max_ratio_error(candidate) == rounding_oracle.max_ratio_error(
        reference
    )


def assert_rounds_alike(assignment):
    assert_same_rounding(
        round_assignment(assignment),
        rounding_oracle.round_assignment(assignment),
    )
    assert_same_rounding(
        round_assignment_ratio_preserving(assignment),
        rounding_oracle.round_assignment_ratio_preserving(assignment),
    )


def hand_built(assignment, draw_offset):
    """The assignment with every edge moved off its exact volume (plain
    dict tables, as LP, runtime and hand-built assignments have)."""
    edges = {
        key: volume + draw_offset() for key, volume in assignment.edge_volume.items()
    }
    return dataclasses.replace(assignment, edge_volume=edges)


class TestRoundingEquivalence:
    @given(seed=dag_seeds, shape=shapes, sep=separators, half=halves)
    @settings(max_examples=40, deadline=None)
    def test_dagsolve_assignments(self, seed, shape, sep, half):
        dag = random_dag(seed, shape, sep, half)
        assert_rounds_alike(dagsolve(dag, PAPER_LIMITS))

    @given(seed=dag_seeds, shape=shapes, sep=separators)
    @settings(max_examples=15, deadline=None)
    def test_lp_assignments_with_slack(self, seed, shape, sep):
        dag = random_dag(seed, shape, sep)
        try:
            assignment = lp_solve(dag, PAPER_LIMITS)
        except VolumeError:
            return  # an infeasible LP has nothing to round
        assert assignment.tolerance > 0
        assert_rounds_alike(assignment)

    @given(seed=dag_seeds, shape=shapes, sep=separators, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_off_grid_hand_built_tables(self, seed, shape, sep, data):
        dag = random_dag(seed, shape, sep)
        exact = dagsolve(dag, PAPER_LIMITS)
        offset = st.sampled_from(OFFSETS)
        assert_rounds_alike(
            hand_built(exact, lambda: data.draw(offset, label="offset"))
        )

    @pytest.mark.parametrize("build", [glucose.build_dag, enzyme.build_dag])
    def test_repair_shaves_like_the_oracle(self, build):
        """Half a least count up on every edge rounds each one up, past
        what its producer makes: the repair has to shave, and shaves the
        edges the oracle shaves."""
        exact = dagsolve(build(), PAPER_LIMITS)
        nudged = hand_built(exact, lambda: LEAST / 2)
        reference = rounding_oracle.round_assignment(nudged)
        quantized = {
            key: PAPER_LIMITS.quantize(volume)
            for key, volume in nudged.edge_volume.items()
        }
        assert any(
            reference.edge_volume[key] != quantized[key] for key in quantized
        ), "no edge was shaved"
        assert_rounds_alike(nudged)

    def test_cascaded_plans_with_excess_edges(self):
        compiled = run_compile(dag=enzyme.build_dag()).compiled
        dag = compiled.final_dag
        assert any(edge.is_excess for edge in dag.edges())
        assert_rounds_alike(compiled.plan.assignment)
        assert_rounds_alike(dagsolve(dag, PAPER_LIMITS))

    @pytest.mark.parametrize("cascaded", [False, True])
    def test_negative_and_missing_entries(self, cascaded):
        """A negative draw into a mix (its inbound total goes negative too)
        leaves its producer's excess edge no surplus; a missing edge is a
        KeyError either way."""
        if cascaded:
            compiled = run_compile(dag=enzyme.build_dag()).compiled
            exact = dagsolve(compiled.final_dag, PAPER_LIMITS)
        else:
            exact = dagsolve(glucose.build_dag(), PAPER_LIMITS)
        dag = exact.dag
        mix = next(
            node.id
            for node in dag.nodes()
            if sum(1 for e in dag.in_edges(node.id) if not e.is_excess) >= 2
            and (
                not cascaded
                or any(e.is_excess for e in dag.out_edges(node.id))
            )
        )
        key = next(e.key for e in dag.in_edges(mix) if not e.is_excess)
        negative = dataclasses.replace(
            exact,
            edge_volume={
                **exact.edge_volume,
                key: -sum(exact.edge_volume.values()) - 1,
            },
        )
        assert_rounds_alike(negative)
        edges = dict(exact.edge_volume)
        del edges[key]
        missing = dataclasses.replace(exact, edge_volume=edges)
        with pytest.raises(KeyError):
            rounding_oracle.round_assignment(missing)
        with pytest.raises(KeyError):
            round_assignment(missing)


class TestEdgeVolumePackaging:
    """LP and ILP solutions are priced by the same integer derivation of
    node volumes the rounding uses."""

    def assert_packs_alike(self, dag, edges, **kwargs):
        assert_same_rounding(
            assignment_from_edge_volumes(dag, PAPER_LIMITS, edges, **kwargs),
            rounding_oracle.assignment_from_edge_volumes(
                dag, PAPER_LIMITS, edges, **kwargs
            ),
        )

    @given(seed=dag_seeds, shape=shapes, sep=separators, half=halves,
           data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_off_grid_edge_volumes(self, seed, shape, sep, half, data):
        dag = random_dag(seed, shape, sep, half)
        exact = dagsolve(dag, PAPER_LIMITS)
        offset = st.sampled_from(OFFSETS)
        edges = {
            key: volume + data.draw(offset, label="offset")
            for key, volume in exact.edge_volume.items()
        }
        self.assert_packs_alike(
            dag, edges, method="lp", meta={"seed": seed}, tolerance=LEAST / 7
        )

    def test_lp_solutions_with_excess_edges(self):
        compiled = run_compile(dag=enzyme.build_dag()).compiled
        lp = compiled.plan.assignment
        assert any(edge.is_excess for edge in compiled.final_dag.edges())
        self.assert_packs_alike(
            compiled.final_dag, dict(lp.edge_volume), method="lp"
        )
        # an excess edge missing from the solution is appended in DAG order
        edges = {
            key: volume
            for key, volume in lp.edge_volume.items()
            if not compiled.final_dag.edge(*key).is_excess
        }
        self.assert_packs_alike(compiled.final_dag, edges, method="lp")


# ---------------------------------------------------------------------------
# feasibility verdicts on every kind of plan
# ---------------------------------------------------------------------------
#: slacks a plan may carry: none, the LP's kind, a least count.
SLACKS = (Fraction(0), Fraction(1, 200), LEAST)


def assert_oracle_verdicts(assignment):
    """The one integer verdict path against the Fraction oracle: the same
    violations in the same order, and the same minimum edge (the first in
    table order on ties)."""
    assert assignment.violations() == dagsolve_oracle.violations(assignment)
    assert assignment.min_edge() == dagsolve_oracle.min_edge(assignment)
    assert max_ratio_error(assignment) == rounding_oracle.max_ratio_error(
        assignment
    )


def assert_same_violations(assignment):
    """:func:`assert_oracle_verdicts` with every slack."""
    for slack in SLACKS:
        assert_oracle_verdicts(dataclasses.replace(assignment, tolerance=slack))


class TestViolationsEquivalence:
    @given(
        seed=dag_seeds,
        shape=shapes,
        sep=separators,
        half=halves,
        max_ratio=st.sampled_from([5, 400]),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_rounded_restored_lp_and_hand_built_tables(
        self, seed, shape, sep, half, max_ratio, data
    ):
        """Every kind of plan holds its tables on one shared positive
        basis and decides like the oracle: DAGSolve under both
        objectives, both roundings, a serde restore, ``replace``-built
        tables (also mixing two plans' tables), and the LP (with its
        slack) and its rounding."""
        dag = random_dag(seed, shape, sep, half, max_ratio)
        exact = dagsolve(dag, PAPER_LIMITS)
        rounded = round_assignment(exact)
        restored = assignment_from_dict(assignment_to_dict(rounded), dag)
        offset = st.sampled_from(OFFSETS)
        tables = [
            exact,
            dagsolve(dag, PAPER_LIMITS, objective="waste"),
            rounded,
            round_assignment_ratio_preserving(exact),
            restored,
            hand_built(exact, lambda: data.draw(offset, label="offset")),
            # tables of two plans, on two bases
            dataclasses.replace(exact, edge_volume=rounded.edge_volume),
        ]
        try:
            lp = lp_solve(dag, PAPER_LIMITS)
        except VolumeError:
            pass  # an infeasible LP has no tables
        else:
            tables += [lp, round_assignment(lp)]
        for assignment in tables:
            basis = assignment.edge_volume.basis
            assert basis[0] > 0 and basis[1] > 0
            assert assignment.node_volume.basis == basis
            assert assignment.node_input_volume.basis == basis
            assert_same_violations(assignment)

    @pytest.mark.parametrize("seed", range(6))
    def test_ilp_plans_on_small_dags(self, seed):
        dag = random_dag(seed, (2, 2, 2))
        plan = ilp_solve(dag, PAPER_LIMITS, time_limit=10)
        assert plan.tolerance > 0
        assert_same_violations(plan)

    def test_zero_scale_ties_break_in_table_order(self):
        """A measured input holding nothing dispenses every edge at 0 nl:
        all edges tie (their Vnorm integers do not), and the first in
        table order is the minimum."""
        dag = random_dag(3, (3, 2, 2))
        source = next(node for node in dag.nodes() if not dag.in_edges(node.id))
        source.kind = NodeKind.CONSTRAINED_INPUT
        source.available_volume = Fraction(0)
        plan = dagsolve(dag, PAPER_LIMITS)
        assert plan.scale == 0
        first = next(iter(plan.edge_volume))
        assert plan.min_edge() == (first, Fraction(0))
        built = dataclasses.replace(
            plan, edge_volume=dict.fromkeys(plan.edge_volume, Fraction(0))
        )
        assert built.min_edge() == (first, Fraction(0))
        assert_same_violations(plan)
        assert_same_violations(built)

    @given(seed=dag_seeds, shape=shapes, sep=separators, data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_node_limits_at_their_bounds(self, seed, shape, sep, data):
        """Capacities and FU minimums exactly at what a node holds, and a
        slack or a least count either side of it."""
        dag = random_dag(seed, shape, sep)
        assignment = round_assignment(dagsolve(dag, PAPER_LIMITS))
        near = st.sampled_from(
            [Fraction(0), Fraction(1, 200), Fraction(-1, 200), LEAST, -LEAST]
        )
        for node in dag.nodes():
            produced = assignment.node_volume[node.id]
            entering = assignment.node_input_volume[node.id]
            limit = data.draw(
                st.sampled_from(["none", "capacity", "minimum"]),
                label=f"limit {node.id}",
            )
            if limit == "capacity":
                node.capacity = max(produced, entering) + data.draw(near)
            elif limit == "minimum":
                held = (
                    produced
                    if node.kind in (NodeKind.INPUT, NodeKind.CONSTRAINED_INPUT)
                    else entering
                )
                node.min_volume = held + data.draw(near)
        assert_same_violations(assignment)

    def test_an_underflow_overflow_and_minimum_at_once(self):
        dag = AssayDAG("limits")
        dag.add_input("A", min_volume=Fraction(50))
        dag.add_input("B")
        dag.add_mix("M", {"A": 1, "B": 1}, capacity=Fraction(20))
        volumes = {"A": Fraction(20), "B": LEAST / 2, "M": Fraction(81, 4)}
        assignment = dataclasses.replace(
            dagsolve(dag, PAPER_LIMITS),
            node_volume=volumes,
            node_input_volume=dict(volumes),
            edge_volume={("A", "M"): Fraction(20), ("B", "M"): LEAST / 2},
        )
        kinds = [v.kind for v in assignment.violations()]
        assert kinds == ["underflow", "min-volume", "overflow"]
        assert_same_violations(assignment)


# ---------------------------------------------------------------------------
# plan certification
# ---------------------------------------------------------------------------
def findings(result):
    diagnostics, metrics = result
    return [
        (d.code, d.severity, d.node, d.operand, d.message) for d in diagnostics
    ], metrics


def assert_certifies_alike(dag, assignment, **kwargs):
    got = findings(certify_plan(dag, assignment, PAPER_LIMITS, **kwargs))
    want = findings(
        plan_oracle.certify_plan(dag, assignment, PAPER_LIMITS, **kwargs)
    )
    assert got == want


def tables(assignment, tolerance=None):
    """A writable copy of the assignment's tables."""
    return SimpleNamespace(
        node_volume=dict(assignment.node_volume),
        node_input_volume=dict(assignment.node_input_volume),
        edge_volume=dict(assignment.edge_volume),
        tolerance=assignment.tolerance if tolerance is None else tolerance,
    )


def compiled_plan(seed, shape, sep, half, max_ratio):
    dag = random_dag(seed, shape, sep, half, max_ratio)
    try:
        return run_compile(dag=dag).compiled
    except CodegenError:
        return None  # a codegen hazard of the random DAG, not under test


options = st.fixed_dictionaries(
    {},
    optional={
        "expect_feasible": st.booleans(),
        "ratio_tolerance": st.sampled_from(
            [Fraction(0), LEAST, Fraction(1, 3), Fraction(5, 2)]
        ),
    },
)


class TestPlanCheckerEquivalence:
    @given(
        seed=dag_seeds,
        shape=shapes,
        sep=separators,
        half=halves,
        max_ratio=st.sampled_from([5, 400]),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_compiled_plans_and_perturbations(
        self, seed, shape, sep, half, max_ratio, data
    ):
        compiled = compiled_plan(seed, shape, sep, half, max_ratio)
        if compiled is None or compiled.assignment is None:
            return
        dag = compiled.final_dag
        kwargs = data.draw(options, label="options")
        assert_certifies_alike(dag, compiled.assignment, **kwargs)

        lie = tables(compiled.assignment)
        table = data.draw(
            st.sampled_from(["node_volume", "node_input_volume", "edge_volume"]),
            label="table",
        )
        entries = getattr(lie, table)
        key = data.draw(st.sampled_from(sorted(entries)), label="key")
        change = data.draw(
            st.sampled_from(["offset", "negative", "missing"]), label="change"
        )
        if change == "offset":
            entries[key] += data.draw(st.sampled_from(OFFSETS), label="offset")
        elif change == "negative":
            entries[key] = -entries[key] - LEAST
        else:
            del entries[key]
        assert_certifies_alike(dag, lie, **kwargs)

    @given(seed=dag_seeds, shape=shapes, sep=separators, data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_node_limits_at_their_boundaries(self, seed, shape, sep, data):
        """Capacities, minimum loads and budgets set at, just under and
        just over what the plan holds."""
        compiled = compiled_plan(seed, shape, sep, False, 9)
        if compiled is None or compiled.assignment is None:
            return
        dag = compiled.final_dag.copy()
        assignment = compiled.assignment
        near = st.sampled_from([Fraction(0), LEAST, -LEAST, Fraction(1, 3)])
        for node in dag.nodes():
            if node.kind is NodeKind.EXCESS:
                continue
            held = max(
                assignment.node_volume[node.id],
                assignment.node_input_volume[node.id],
            )
            limit = data.draw(
                st.sampled_from(["none", "capacity", "minimum", "budget"]),
                label=f"limit {node.id}",
            )
            if limit == "capacity":
                node.capacity = held + data.draw(near) + LEAST
            elif limit == "minimum":
                node.min_volume = held + data.draw(near)
            elif limit == "budget" and node.kind is NodeKind.INPUT:
                node.kind = NodeKind.CONSTRAINED_INPUT
                node.available_volume = held + data.draw(near) + LEAST
        assert_certifies_alike(dag, assignment)

    @given(seed=dag_seeds, shape=shapes, sep=separators, data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_unrounded_and_lp_assignments(self, seed, shape, sep, data):
        """Exact DAGSolve volumes sit off the grid (PLAN-QUANT); the LP's
        positive slack widens every comparison."""
        dag = random_dag(seed, shape, sep)
        assert_certifies_alike(dag, dagsolve(dag, PAPER_LIMITS))
        try:
            lp = lp_solve(dag, PAPER_LIMITS)
        except VolumeError:
            return
        assert lp.tolerance > 0
        assert_certifies_alike(dag, lp)
        lie = tables(lp)
        key = data.draw(st.sampled_from(sorted(lie.edge_volume)), label="key")
        lie.edge_volume[key] += data.draw(st.sampled_from(OFFSETS))
        assert_certifies_alike(dag, lie)

    @pytest.mark.parametrize(
        "offset", [Fraction(-1, 400), Fraction(0), Fraction(1, 400)]
    )
    def test_slack_at_the_ratio_and_flow_bounds(self, offset):
        """A 1:1 mix whose ratio deviation and flow imbalances sit just
        inside, exactly at, and just beyond tolerance plus a 1/200 nl
        slack."""
        dag = AssayDAG("slack")
        dag.add_input("A")
        dag.add_input("B")
        dag.add_mix("M", {"A": 1, "B": 1})
        slack = Fraction(1, 200)
        # three least counts of ratio tolerance: a deviates by half of a - b
        a = Fraction(20) + 6 * LEAST + 2 * slack + 2 * offset
        b = Fraction(20)
        lie = SimpleNamespace(
            node_volume={"A": a, "B": b, "M": a + b + slack + offset},
            node_input_volume={"A": a + slack + offset, "B": b, "M": a + b},
            edge_volume={("A", "M"): a, ("B", "M"): b},
            tolerance=slack,
        )
        assert_certifies_alike(dag, lie)

    @pytest.mark.parametrize("lie", [-LEAST, Fraction(1, 3), LEAST])
    def test_separator_production_off_its_output_fraction(self, lie):
        """A separator keeps half its input: a production a least count
        (or a third of a nanoliter) off that half is a PLAN-FLOW whose
        message prices the expected half."""
        dag = AssayDAG("separator")
        dag.add_input("A")
        dag.add_unary(
            "S", "A", kind=NodeKind.SEPARATE, output_fraction=Fraction(1, 2)
        )
        dag.add_unary("D", "S", kind=NodeKind.HEAT)
        plan = SimpleNamespace(
            node_volume={"A": Fraction(41, 3), "S": Fraction(41, 6) + lie,
                         "D": Fraction(41, 6)},
            node_input_volume={"A": Fraction(41, 3), "S": Fraction(41, 3),
                               "D": Fraction(41, 6)},
            edge_volume={("A", "S"): Fraction(41, 3), ("S", "D"): Fraction(41, 6)},
            tolerance=0,
        )
        assert_certifies_alike(dag, plan)
