"""Property tests for the plan-certificate verifier.

Two directions:

* **soundness of the compiler** (and of the verifier's constraints): every
  plan the pipeline produces over a random DAG certifies with zero
  errors;
* **sensitivity**: perturbing any single dispensed volume by one least
  count breaks exact flow conservation somewhere, and the verifier
  catches it with a PLAN-* error.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.certify import certify, certify_plan
from repro.assays import generators
from repro.compiler.passes import run_compile

seeds = st.integers(min_value=0, max_value=5000)


def _compiled(seed: int, separator_probability: float = 0.0):
    dag = generators.layered_random_dag(
        4, 2, 2, seed=seed, max_ratio=5,
        separator_probability=separator_probability,
    )
    return run_compile(dag=dag).compiled


class TestCompilerOutputCertifies:
    @given(seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_random_plans_certify_without_errors(self, seed):
        compiled = _compiled(seed)
        report = certify(compiled)
        assert report.counts["error"] == 0, report.render_text()

    @given(seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_separator_plans_agree_with_the_linter(self, seed):
        """Random separator DAGs can tickle a genuine codegen hazard
        (back-to-back separations flush an unparked terminal product).
        On such programs the linter errors too — the two independent
        analyzers must agree; on lint-clean programs certify is clean."""
        from repro.analysis import lint_program

        compiled = _compiled(seed, separator_probability=0.4)
        report = certify(compiled)
        lint = lint_program(compiled.program, compiled.spec)
        if lint.counts["error"] == 0:
            assert report.counts["error"] == 0, report.render_text()
        elif report.counts["error"]:
            assert any(
                code.startswith("SCHED-") for code in report.codes()
            ), report.render_text()

    @given(seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_feasible_plans_are_fully_clean(self, seed):
        compiled = _compiled(seed)
        if compiled.needs_regeneration or compiled.assignment is None:
            return
        report = certify(compiled)
        assert report.is_clean, report.render_text()


class TestSingleStepSensitivity:
    @given(seed=seeds, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_any_one_least_count_perturbation_is_caught(self, seed, data):
        compiled = _compiled(seed)
        assignment = compiled.assignment
        if assignment is None or compiled.needs_regeneration:
            return
        least = compiled.spec.limits.least_count
        dispensed = [
            e for e in compiled.final_dag.edges() if not e.is_excess
        ]
        if not dispensed:
            return
        edge = data.draw(st.sampled_from(dispensed), label="edge")
        direction = data.draw(st.sampled_from([1, -1]), label="direction")
        original = assignment.edge_volume[edge.key]
        assignment.edge_volume[edge.key] = original + direction * least
        try:
            diagnostics, _ = certify_plan(
                compiled.final_dag, assignment, compiled.spec.limits
            )
        finally:
            assignment.edge_volume[edge.key] = original
        errors = [d for d in diagnostics if d.severity.value == "error"]
        assert errors, "a one-least-count lie slipped through"
        assert all(d.code.startswith("PLAN-") for d in errors)


class TestMetricsInvariants:
    @given(seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_waste_accounting_is_conservative(self, seed):
        compiled = _compiled(seed)
        if compiled.assignment is None:
            return
        report = certify(compiled)
        metrics = report.extras["metrics"]
        assert metrics["loaded_nl"] >= 0
        assert metrics["delivered_nl"] >= 0
        # nothing delivered can exceed what was loaded
        assert (
            metrics["delivered_nl"]
            <= metrics["loaded_nl"] + float(Fraction(1, 1000))
        )
        assert 0 <= metrics["utilisation"] <= 1
