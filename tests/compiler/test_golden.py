"""Golden listings: a fixed byte reference for what the compiler emits.

``golden_listings.json`` holds, per corpus entry (``tools/corpus.py``)
and per ``gradient_corpus()`` workload, a sha256 over the AIS listing,
``plan.summary()`` and the diagnostic strings of one
:func:`~repro.compiler.passes.run_compile` (the harness's
``output_digest``), under both planning objectives.  A refactor that
changes any byte of that output fails here instead of passing a
self-comparison.

Only entries whose plan comes from DAGSolve (status ``dagsolve``) or is
left to run time (no static plan, status ``runtime``) are recorded.
LP-planned entries stay out: their volumes can differ in the last digit
across the scipy/HiGHS versions the CI matrix installs.

Regenerate after an intended output change with::

    PYTHONPATH=src python tests/compiler/test_golden.py --write
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys

import pytest

from repro.assays.gradients import gradient_corpus

ROOT = pathlib.Path(__file__).resolve().parents[2]
GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_listings.json")
OBJECTIVES = ("default", "waste")
#: plan statuses whose output does not depend on the LP solver.
RECORDED_STATUSES = ("dagsolve", "runtime")


def _load_harness():
    path = ROOT / "tools" / "corpus.py"
    spec = importlib.util.spec_from_file_location("corpus_harness", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


HARNESS = _load_harness()
output_digest = HARNESS.output_digest


def corpus_entries() -> list:
    """``tools/corpus.py``'s listing plus the gradient workloads."""
    entries = HARNESS.corpus_entries()
    entries += [(dag.name, {"dag": dag}) for dag in gradient_corpus()]
    return entries


def compile_entry(kwargs: dict, objective: str):
    return HARNESS.objective_compile(kwargs, objective).compiled


def plan_status(compiled) -> str:
    return compiled.plan.status if compiled.plan is not None else "runtime"


def golden_records() -> dict:
    """Compile everything and keep the LP-independent entries."""
    records: dict = {}
    for objective in OBJECTIVES:
        for name, kwargs in corpus_entries():
            compiled = compile_entry(kwargs, objective)
            status = plan_status(compiled)
            if status in RECORDED_STATUSES:
                records.setdefault(objective, {})[name] = {
                    "status": status,
                    "sha256": output_digest(compiled),
                }
    return records


GOLDEN = (
    json.loads(GOLDEN_PATH.read_text())
    if GOLDEN_PATH.exists()
    else {objective: {} for objective in OBJECTIVES}
)
CASES = [
    (objective, name)
    for objective in OBJECTIVES
    for name in sorted(GOLDEN[objective])
]


@pytest.mark.parametrize("objective,name", CASES)
def test_output_matches_golden(objective, name):
    kwargs = dict(corpus_entries())[name]
    compiled = compile_entry(kwargs, objective)
    expected = GOLDEN[objective][name]
    assert plan_status(compiled) == expected["status"]
    assert output_digest(compiled) == expected["sha256"]


def test_golden_names_are_current_entries():
    names = {name for name, __ in corpus_entries()}
    for objective in OBJECTIVES:
        assert GOLDEN[objective], f"no golden records for {objective}"
        assert set(GOLDEN[objective]) <= names, objective


if __name__ == "__main__":
    text = json.dumps(golden_records(), indent=2, sort_keys=True) + "\n"
    if "--write" in sys.argv[1:]:
        GOLDEN_PATH.write_text(text)
    else:
        sys.stdout.write(text)
