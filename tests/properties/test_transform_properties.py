"""Property-based tests for the cascading and replication transforms."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.cascading import (
    cascade_extreme_mixes,
    cascade_mix,
    stage_factors,
)
from repro.core.dag import AssayDAG
from repro.core.dagsolve import compute_vnorms
from repro.core.errors import ResourceExhaustedError
from repro.core.fingerprint import fingerprint_dag
from repro.core.limits import PAPER_LIMITS
from repro.core.objectives import resolve_objective
from repro.core.replication import iterative_replication, replicate_node

ratios = st.integers(min_value=2, max_value=100_000)
depths = st.integers(min_value=2, max_value=5)


def skew_dag(ratio):
    dag = AssayDAG()
    dag.add_input("A")
    dag.add_input("B")
    dag.add_mix("M", {"A": 1, "B": ratio})
    return dag


class TestStageFactors:
    @given(ratio=ratios, depth=depths)
    @settings(max_examples=150, deadline=None)
    def test_product_exact(self, ratio, depth):
        factors = stage_factors(Fraction(ratio + 1), depth)
        product = Fraction(1)
        for factor in factors:
            product *= factor
        assert product == ratio + 1

    @given(ratio=ratios, depth=depths)
    @settings(max_examples=150, deadline=None)
    def test_all_factors_exceed_one(self, ratio, depth):
        for factor in stage_factors(Fraction(ratio + 1), depth):
            assert factor > 1

    @given(ratio=ratios, depth=depths)
    @settings(max_examples=150, deadline=None)
    def test_deeper_means_milder(self, ratio, depth):
        """The largest per-stage factor never grows with depth."""
        shallow = max(stage_factors(Fraction(ratio + 1), depth))
        deeper = max(stage_factors(Fraction(ratio + 1), depth + 1))
        assert deeper <= shallow


class TestCascadeSemantics:
    @given(ratio=ratios, depth=depths)
    @settings(max_examples=80, deadline=None)
    def test_overall_composition_preserved(self, ratio, depth):
        """Following the cascade chain, the delivered mixture contains
        exactly 1 part A per `ratio` parts B — the transform changes the
        realisation, never the chemistry."""
        dag = skew_dag(ratio)
        cascaded, report = cascade_mix(
            dag, "M", stage_factors(Fraction(ratio + 1), depth)
        )
        cascaded.validate()
        # Walk the chain computing the A-concentration of each stage:
        # mixing the previous concentrate (share s) with pure B dilutes
        # A's concentration by exactly s.
        concentration = {"A": Fraction(1), "B": Fraction(0)}
        previous = "A"
        for stage_id in list(report.intermediate_ids) + ["M"]:
            inbound = {
                e.src: e.fraction
                for e in cascaded.in_edges(stage_id)
                if not e.is_excess
            }
            assert set(inbound) == {previous, "B"}
            assert sum(inbound.values()) == 1
            concentration[stage_id] = (
                inbound[previous] * concentration[previous]
            )
            previous = stage_id
        assert concentration["M"] == Fraction(1, ratio + 1)

    @given(ratio=ratios, depth=depths)
    @settings(max_examples=80, deadline=None)
    def test_intermediate_vnorms_equal_final(self, ratio, depth):
        dag = skew_dag(ratio)
        cascaded, report = cascade_mix(
            dag, "M", stage_factors(Fraction(ratio + 1), depth)
        )
        vnorms = compute_vnorms(cascaded)
        for intermediate in report.intermediate_ids:
            assert vnorms.node_vnorm[intermediate] == vnorms.node_vnorm["M"]

    @given(ratio=ratios, depth=depths)
    @settings(max_examples=80, deadline=None)
    def test_excess_accounting(self, ratio, depth):
        """Used + discarded == produced at every intermediate."""
        dag = skew_dag(ratio)
        cascaded, report = cascade_mix(
            dag, "M", stage_factors(Fraction(ratio + 1), depth)
        )
        vnorms = compute_vnorms(cascaded)
        for intermediate in report.intermediate_ids:
            production = vnorms.node_vnorm[intermediate]
            used = sum(
                vnorms.edge_vnorm[e.key]
                for e in cascaded.out_edges(intermediate)
                if not e.is_excess
            )
            discarded = sum(
                vnorms.edge_vnorm[e.key]
                for e in cascaded.out_edges(intermediate)
                if e.is_excess
            )
            assert used + discarded == production


class TestReplicationSemantics:
    @given(
        uses=st.integers(min_value=2, max_value=24),
        copies=st.integers(min_value=2, max_value=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_total_load_conserved(self, uses, copies):
        assume(copies <= uses)
        dag = AssayDAG()
        dag.add_input("stock")
        for i in range(uses):
            dag.add_input(f"r{i}")
            dag.add_mix(f"m{i}", {"stock": 1, f"r{i}": i + 1})
        before = compute_vnorms(dag).node_vnorm["stock"]
        vnorms = compute_vnorms(dag)
        weights = {
            e.key: vnorms.edge_vnorm[e.key]
            for e in dag.out_edges("stock")
        }
        replicated, report = replicate_node(
            dag, "stock", copies, weights=weights
        )
        replicated.validate()
        after = compute_vnorms(replicated)
        total = sum(
            after.node_vnorm[replica] for replica in report.replica_ids
        )
        assert total == before

    @given(
        uses=st.integers(min_value=2, max_value=24),
        copies=st.integers(min_value=2, max_value=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_max_replica_load_reduced(self, uses, copies):
        assume(copies <= uses)
        dag = AssayDAG()
        dag.add_input("stock")
        for i in range(uses):
            dag.add_input(f"r{i}")
            dag.add_mix(f"m{i}", {"stock": 1, f"r{i}": 1})
        vnorms = compute_vnorms(dag)
        weights = {
            e.key: vnorms.edge_vnorm[e.key]
            for e in dag.out_edges("stock")
        }
        replicated, report = replicate_node(
            dag, "stock", copies, weights=weights
        )
        after = compute_vnorms(replicated)
        peak = max(
            after.node_vnorm[replica] for replica in report.replica_ids
        )
        assert peak < vnorms.node_vnorm["stock"]

    @given(
        uses=st.integers(min_value=2, max_value=24),
        copies=st.integers(min_value=2, max_value=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_use_served_exactly_once(self, uses, copies):
        assume(copies <= uses)
        dag = AssayDAG()
        dag.add_input("stock")
        for i in range(uses):
            dag.add_input(f"r{i}")
            dag.add_mix(f"m{i}", {"stock": 2, f"r{i}": 3})
        replicated, report = replicate_node(dag, "stock", copies)
        served = [
            consumer
            for bucket in report.distribution
            for consumer in bucket
        ]
        assert sorted(served) == sorted(f"m{i}" for i in range(uses))
        for consumer in served:
            stock_edges = [
                e
                for e in replicated.in_edges(consumer)
                if e.src.startswith("stock")
            ]
            assert len(stock_edges) == 1
            assert stock_edges[0].fraction == Fraction(2, 5)


# ---------------------------------------------------------------------------
# ownership: the pass-level transforms rewrite one private copy
# ---------------------------------------------------------------------------
@st.composite
def extreme_dags(draw):
    """Dilutions of a few concentrates with one shared diluent.

    The first mix is always extreme for the paper's 1000x dynamic range;
    later ones may dilute an earlier mix, and repeated concentrate/ratio
    pairs give the waste objective stages to share.
    """
    dag = AssayDAG("extreme")
    dag.add_input("diluent")
    sources = []
    for index in range(draw(st.integers(min_value=1, max_value=3))):
        dag.add_input(f"c{index}")
        sources.append(f"c{index}")
    ratios = st.sampled_from([9, 99, 999, 4999, 9999, 99999, 999999])
    extreme = st.sampled_from([999, 9999, 99999, 999999])
    for index in range(draw(st.integers(min_value=1, max_value=6))):
        source = draw(st.sampled_from(sources))
        ratio = draw(extreme if index == 0 else ratios)
        dag.add_mix(f"m{index}", {source: 1, "diluent": ratio})
        sources.append(f"m{index}")
    return dag


def crowded_dag(uses_d: int, uses_e: int, ratio: int) -> AssayDAG:
    """Two heavily-used diluents: replication rewrites one per round."""
    dag = AssayDAG("crowded")
    dag.add_input("D")
    dag.add_input("E")
    for i in range(uses_d):
        dag.add_input(f"r{i}")
        dag.add_mix(f"m{i}", {f"r{i}": 1, "D": ratio})
    for j in range(uses_e):
        dag.add_input(f"s{j}")
        dag.add_mix(f"q{j}", {f"s{j}": 1, "E": ratio})
    return dag


crowded_dags = st.builds(
    crowded_dag,
    st.integers(min_value=11, max_value=24),
    st.integers(min_value=11, max_value=24),
    st.sampled_from([99, 199]),
)

objectives = st.sampled_from(["default", "waste"])


class TestTransformOwnership:
    """``cascade_extreme_mixes`` and ``iterative_replication`` copy their
    input once and rewrite that copy in place: the input is never touched,
    the result equals folding the copy-returning single rewrites, and no
    solver context cached mid-pass survives a rewrite."""

    @given(dag=extreme_dags(), objective=objectives)
    @settings(max_examples=60, deadline=None)
    def test_cascade_pass(self, dag, objective):
        compute_vnorms(dag)  # a cached context on the input must survive
        before = fingerprint_dag(dag)
        try:
            out, reports = cascade_extreme_mixes(
                dag, PAPER_LIMITS, objective=resolve_objective(objective)
            )
        except ResourceExhaustedError:
            assert fingerprint_dag(dag) == before
            return
        assert fingerprint_dag(dag) == before
        assert reports and out is not dag
        registry = {} if objective == "waste" else None
        folded = dag
        for report in reports:
            folded, again = cascade_mix(
                folded, report.node, list(report.factors),
                share_registry=registry,
            )
            assert again == report
        assert fingerprint_dag(out) == fingerprint_dag(folded)
        assert compute_vnorms(out) == compute_vnorms(out.copy())

    @pytest.mark.parametrize("objective", ["default", "waste"])
    def test_cascade_failure_after_first_rewrite(self, objective):
        dag = AssayDAG("fails-late")
        for fluid in ("A", "B", "diluent"):
            dag.add_input(fluid)
        dag.add_mix("easy", {"A": 1, "diluent": 999})
        dag.add_mix("hard", {"B": 1, "diluent": 9_999_999})
        before = fingerprint_dag(dag)
        with pytest.raises(ResourceExhaustedError):
            cascade_extreme_mixes(
                dag, PAPER_LIMITS, max_depth=2,
                objective=resolve_objective(objective),
            )
        assert fingerprint_dag(dag) == before

    def test_nothing_extreme_returns_the_input(self):
        dag = skew_dag(99)
        assert cascade_extreme_mixes(dag, PAPER_LIMITS) == (dag, [])

    @given(dag=crowded_dags)
    @settings(max_examples=30, deadline=None)
    def test_replication_pass(self, dag):
        before = fingerprint_dag(dag)
        out, reports = iterative_replication(dag, PAPER_LIMITS)
        assert fingerprint_dag(dag) == before
        assert reports
        folded = dag
        for report in reports:
            vnorms = compute_vnorms(folded)
            weights = {
                e.key: vnorms.edge_vnorm[e.key]
                for e in folded.out_edges(report.node)
                if not e.is_excess
            }
            folded, again = replicate_node(
                folded, report.node, report.copies, weights=weights
            )
            assert again == report
        assert fingerprint_dag(out) == fingerprint_dag(folded)
        assert compute_vnorms(out) == compute_vnorms(out.copy())

    @given(dag=crowded_dags)
    @settings(max_examples=15, deadline=None)
    def test_replication_budget_trips_after_first_rewrite(self, dag):
        before = fingerprint_dag(dag)
        with pytest.raises(ResourceExhaustedError, match="PLoC budget"):
            iterative_replication(
                dag, PAPER_LIMITS, max_total_nodes=dag.node_count + 1
            )
        assert fingerprint_dag(dag) == before
