"""Property-based equivalence: the integer replication loop vs its oracle.

:func:`repro.core.replication.iterative_replication` takes every verdict
(underflow, the minimum edge, the binding node, the required scale) on
DAGSolve's integers; :mod:`oracles.replication` is the same loop with
every verdict in :class:`fractions.Fraction` over the Fraction DAGSolve
oracle.  On random layered DAGs with extreme mix ratios, under hardware
whose narrow dynamic range makes replication both succeed and give up,
the two must rewrite identically or fail with the same error.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assays import generators
from repro.core.dag import AssayDAG
from repro.core.errors import ResourceExhaustedError
from repro.core.limits import PAPER_LIMITS, HardwareLimits
from repro.core.replication import iterative_replication

from oracles import replication as oracle

LIMITS = (PAPER_LIMITS, HardwareLimits(100, Fraction(1, 2)), HardwareLimits(100, 1))


def outcome(replicate, dag, limits, budget=60):
    """What one replication loop did: its rewrites or its error."""
    try:
        out, reports = replicate(dag, limits, max_total_nodes=budget)
    except ResourceExhaustedError as error:
        return "error", str(error)
    edges = {(edge.key, edge.fraction) for edge in out.edges()}
    return "ok", reports, sorted(node.id for node in out.nodes()), edges


def random_dag(seed, shape, max_ratio):
    return generators.layered_random_dag(
        shape[0], shape[1], shape[2], seed=seed, max_ratio=max_ratio
    )


class TestReplicationEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        shape=st.tuples(
            st.integers(min_value=2, max_value=6),
            st.integers(min_value=1, max_value=4),
            st.integers(min_value=1, max_value=3),
        ),
        max_ratio=st.sampled_from([99, 999]),
        limits=st.sampled_from(LIMITS),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_reports_and_edges(self, seed, shape, max_ratio, limits):
        dag = random_dag(seed, shape, max_ratio)
        assert outcome(iterative_replication, dag, limits) == outcome(
            oracle.iterative_replication, dag, limits
        )

    def test_sweep_reaches_every_exit_like_the_oracle(self):
        """A fixed sweep that reaches every exit: no rewrite, rewrites,
        and each way of giving up (a FU minimum replication cannot lift,
        too few uses, the node budget)."""
        limits = HardwareLimits(100, 1)
        exits = set()
        for seed in range(120):
            shape = (2 + seed % 5, 1 + seed % 4, 1 + seed % 3)
            dag = random_dag(seed, shape, 999)
            if seed % 3 == 0:
                dag.outputs()[0].min_volume = Fraction(95)
            budget = dag.node_count + 2 * (seed % 4)
            result = outcome(iterative_replication, dag, limits, budget)
            assert result == outcome(
                oracle.iterative_replication, dag, limits, budget
            )
            if result[0] == "ok":
                exits.add("rewrote" if result[1] else "feasible")
            else:
                exits.add(" ".join(result[1].split(" ")[:2]))
        assert exits == {
            "feasible",
            "rewrote",
            "binding node",
            "replication cannot",
            "replication grew",
        }, exits

    def test_scale_exactly_at_the_required_scale(self):
        """The minimum edge sits exactly at the least count and the only
        underflow is a FU minimum: the capacity bound equals the required
        scale, so replication cannot help (the boundary of the integer
        test)."""
        dag = AssayDAG("boundary")
        dag.add_input("A", min_volume=Fraction(5))
        dag.add_input("B")
        dag.add_mix("M", {"A": 1, "B": 99})
        limits = HardwareLimits(100, 1)
        result = outcome(iterative_replication, dag, limits)
        assert result == outcome(oracle.iterative_replication, dag, limits)
        assert result[0] == "error"
        assert result[1].startswith("replication cannot raise")
