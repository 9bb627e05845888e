"""Table 2 (regeneration column): triggers without volume management.

Paper: Glucose 2, Enzyme 85, Enzyme10 1313 — and zero with DAGSolve.  The
naive policy is the one documented in DESIGN.md; glucose lands exactly,
the enzyme family within a few percent.
"""

import dataclasses

import _report
import pytest

from repro.compiler.passes import run_compile
from repro.core.limits import PAPER_LIMITS
from repro.machine.interpreter import Machine
from repro.machine.spec import AQUACORE_SPEC
from repro.runtime.executor import AssayExecutor
from repro.runtime.regeneration import naive_regeneration_count
from repro.assays import enzyme, glucose

PAPER_REGEN = {"glucose": 2, "enzyme": 85, "enzyme10": 1313}


def build(name):
    if name == "glucose":
        return glucose.build_dag()
    return enzyme.build_dag(10 if name == "enzyme10" else 4)


@pytest.mark.parametrize("name", list(PAPER_REGEN))
def test_regeneration_counts(benchmark, name):
    dag = build(name)
    report = benchmark(
        naive_regeneration_count,
        dag,
        PAPER_LIMITS,
        respect_least_count=False,
    )
    paper = PAPER_REGEN[name]
    _report.record(
        "table2 regeneration counts (no volume management)",
        name,
        paper,
        report.regeneration_count,
        f"{abs(report.regeneration_count - paper) / paper:.0%} off",
    )
    assert 0.7 * paper <= report.regeneration_count <= 1.3 * paper


def test_zero_regenerations_with_dagsolve(benchmark):
    """'With DAGSolve, there are no regenerations.'"""

    def run():
        compiled = run_compile(source=glucose.SOURCE).compiled
        machine = Machine(AQUACORE_SPEC)
        return AssayExecutor(compiled, machine).run()

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    _report.record(
        "table2 regeneration counts (no volume management)",
        "glucose with DAGSolve plan",
        0,
        result.regenerations,
    )
    assert result.regenerations == 0


def test_zero_regenerations_enzyme_with_plan(benchmark):
    def run():
        compiled = run_compile(source=enzyme.SOURCE).compiled
        machine = Machine(AQUACORE_SPEC)
        return AssayExecutor(compiled, machine).run()

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    _report.record(
        "table2 regeneration counts (no volume management)",
        "enzyme with transformed plan",
        0,
        result.regenerations,
    )
    assert result.regenerations == 0
