"""Content-addressed compile fingerprints: stability and sensitivity."""

import dataclasses
from fractions import Fraction

from repro.assays import paper_example
from repro.core.dag import AssayDAG
from repro.core.fingerprint import (
    compile_fingerprint,
    fingerprint_dag,
    plan_key,
    source_fingerprint,
    source_key,
)
from repro.core.limits import PAPER_LIMITS, HardwareLimits
from repro.machine.spec import AQUACORE_SPEC, AQUACORE_XL_SPEC

OPTIONS = {"use_lp": True, "max_rounds": 4}


def small_dag(order="ab") -> AssayDAG:
    """The same two-input mix built in either insertion order."""
    dag = AssayDAG("small")
    for name in (("A", "B") if order == "ab" else ("B", "A")):
        dag.add_input(name)
    dag.add_mix("M", {"A": 1, "B": 3})
    return dag


class TestStability:
    def test_same_dag_same_fingerprint(self):
        a = paper_example.build_dag()
        b = paper_example.build_dag()
        assert fingerprint_dag(a) == fingerprint_dag(b)

    def test_insertion_order_irrelevant(self):
        assert fingerprint_dag(small_dag("ab")) == fingerprint_dag(
            small_dag("ba")
        )
        assert compile_fingerprint(
            small_dag("ab"), PAPER_LIMITS, AQUACORE_SPEC, OPTIONS
        ) == compile_fingerprint(
            small_dag("ba"), PAPER_LIMITS, AQUACORE_SPEC, OPTIONS
        )

    def test_dag_name_irrelevant(self):
        a = small_dag()
        b = small_dag()
        b.name = "renamed"
        assert fingerprint_dag(a) == fingerprint_dag(b)

    def test_deterministic_across_calls(self):
        dag = paper_example.build_dag()
        fp = compile_fingerprint(dag, PAPER_LIMITS, AQUACORE_SPEC, OPTIONS)
        assert fp == compile_fingerprint(
            dag, PAPER_LIMITS, AQUACORE_SPEC, OPTIONS
        )


class TestSensitivity:
    """Any delta in the compile request must change the fingerprint."""

    def base(self):
        return compile_fingerprint(
            small_dag(), PAPER_LIMITS, AQUACORE_SPEC, OPTIONS
        )

    def test_ratio_delta(self):
        dag = AssayDAG("small")
        dag.add_input("A")
        dag.add_input("B")
        dag.add_mix("M", {"A": 1, "B": 4})
        assert (
            compile_fingerprint(dag, PAPER_LIMITS, AQUACORE_SPEC, OPTIONS)
            != self.base()
        )

    def test_structure_delta(self):
        dag = small_dag()
        dag.add_mix("M2", {"M": 1})
        assert (
            compile_fingerprint(dag, PAPER_LIMITS, AQUACORE_SPEC, OPTIONS)
            != self.base()
        )

    def test_output_fraction_delta(self):
        dag = small_dag()
        dag.node("M").output_fraction = Fraction(1, 2)
        assert (
            compile_fingerprint(dag, PAPER_LIMITS, AQUACORE_SPEC, OPTIONS)
            != self.base()
        )

    def test_limits_delta(self):
        limits = HardwareLimits(
            max_capacity=PAPER_LIMITS.max_capacity * 2,
            least_count=PAPER_LIMITS.least_count,
        )
        assert (
            compile_fingerprint(small_dag(), limits, AQUACORE_SPEC, OPTIONS)
            != self.base()
        )

    def test_spec_delta(self):
        assert (
            compile_fingerprint(
                small_dag(), PAPER_LIMITS, AQUACORE_XL_SPEC, OPTIONS
            )
            != self.base()
        )
        tweaked = dataclasses.replace(AQUACORE_SPEC, n_reservoirs=7)
        assert (
            compile_fingerprint(
                small_dag(), PAPER_LIMITS, tweaked, OPTIONS
            )
            != self.base()
        )

    def test_options_delta(self):
        for delta in (
            {"use_lp": False, "max_rounds": 4},
            {"use_lp": True, "max_rounds": 5},
            {"use_lp": True, "max_rounds": 4, "allow_cascading": False},
        ):
            assert (
                compile_fingerprint(
                    small_dag(), PAPER_LIMITS, AQUACORE_SPEC, delta
                )
                != self.base()
            ), delta


class TestKeys:
    def test_namespaces_disjoint(self):
        dag = small_dag()
        fp = compile_fingerprint(dag, PAPER_LIMITS, AQUACORE_SPEC, OPTIONS)
        assert plan_key(fp).startswith("plan-")
        assert source_key("abc").startswith("src-")

    def test_source_fingerprint_sensitivity(self):
        base = source_fingerprint("assay x {}", AQUACORE_SPEC, OPTIONS)
        assert base == source_fingerprint("assay x {}", AQUACORE_SPEC, OPTIONS)
        assert base != source_fingerprint("assay y {}", AQUACORE_SPEC, OPTIONS)
        assert base != source_fingerprint(
            "assay x {}", AQUACORE_XL_SPEC, OPTIONS
        )
        assert base != source_fingerprint(
            "assay x {}", AQUACORE_SPEC, {"use_lp": False}
        )
