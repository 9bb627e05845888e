"""Certified implies runs: a listing that certifies without an error runs
fault-free to completion on the interpreter.

For a plan whose status is ``regeneration``, certify downgrades the
plan's feasibility codes to warnings, on the assumption that the runtime
recovers.  The first known counterexample is pinned here: a random
layered DAG whose plan gives edge ``('in1', 'n0_0')`` 0 nl certifies
without an error, and the run stops at that edge's metered move.
"""

from __future__ import annotations

import pytest

from repro.analysis.certify import certify
from repro.assays import generators
from repro.compiler.passes import run_compile
from repro.machine.errors import MeteringError
from repro.machine.spec import MACHINES
from repro.runtime.executor import AssayExecutor


@pytest.mark.xfail(
    strict=True,
    raises=MeteringError,
    reason=(
        "ROADMAP item 2 (certified => runs): the regeneration plan gives "
        "edge ('in1', 'n0_0') 0 nl, certify downgrades that to a warning, "
        "and the metered move stops with MeteringError"
    ),
)
def test_random_dag_seed_9_certifies_and_runs():
    dag = generators.layered_random_dag(
        5, 3, 2, seed=9, max_ratio=99, separator_probability=0.4
    )
    compiled = run_compile(dag=dag, spec=MACHINES["aquacore"]).compiled
    report = certify(compiled)
    assert report.counts["error"] == 0, report.render_text()
    result = AssayExecutor(compiled).run()
    assert result.succeeded
