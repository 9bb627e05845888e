"""Golden executions: a fixed byte reference for what the interpreter does.

``golden_execute.json`` holds, per assay of the execute corpus (the
assays the ``execute-faults`` benchmark workload stresses, read from
``perfbench/inputs.py``), a sha256 digest of each of five runs: the
fault-free run and fault seeds 0-3 at the stress harness's default rate.
Each digest covers

* the whole trace (``ExecutionTrace.to_dict()``: every event with its
  clock, every fault and recovery event);
* the sensor results, the shipped output mixtures and the waste tally;
* the injector's fired-fault counts and the failure report, if any.

A change to the interpreter, the fluid model, the fault source or the
executor that moves any volume, reading, clock value or fault decision
fails here.

Three corpus assays are planned by the LP, whose volumes can differ in
the last digit across the scipy/HiGHS versions the CI matrix installs
(see ``tests/compiler/test_golden.py``).  Each record therefore also pins
a digest of the plan the run executes; an LP-planned assay whose plan
differs from the recorded one is skipped, since its runs then execute
other volumes.  DAGSolve-planned and run-time-planned assays never skip.

Regenerate after an intended behaviour change with::

    PYTHONPATH=src python tests/runtime/test_execute_golden.py --write
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import pathlib
import sys

import pytest

from repro.compiler.passes import run_compile
from repro.machine.faults import FaultInjector, FaultPlan
from repro.runtime.executor import AssayExecutor

ROOT = pathlib.Path(__file__).resolve().parents[2]
GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_execute.json")
#: the stress harness's default fault rate (``stress_compiled``).
FAULT_RATE = 0.05
#: None is the fault-free run.
SEEDS = (None, 0, 1, 2, 3)


def _load_inputs():
    path = ROOT / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


SOURCES = _load_inputs().execute_sources()


def _frac(value) -> str:
    return f"{value.numerator}/{value.denominator}"


def _sha(record) -> str:
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _label(seed) -> str:
    return "fault-free" if seed is None else f"seed-{seed}"


def plan_status(compiled) -> str:
    return compiled.plan.status if compiled.plan is not None else "runtime"


def plan_digest(compiled) -> str | None:
    """The rounded volumes a static run executes (None at run time)."""
    assignment = compiled.assignment
    if not compiled.is_static or assignment is None:
        return None
    return _sha(
        {
            "nodes": {k: _frac(v) for k, v in assignment.node_volume.items()},
            "edges": sorted(
                [list(k), _frac(v)] for k, v in assignment.edge_volume.items()
            ),
        }
    )


def run_digest(compiled, seed) -> str:
    injector = (
        None
        if seed is None
        else FaultInjector(FaultPlan.seeded(seed, FAULT_RATE))
    )
    result = AssayExecutor(
        compiled, injector=injector, capture_failures=True
    ).run()
    machine = result.machine
    failure = result.failure_report
    return _sha(
        {
            "trace": result.trace.to_dict(),
            "results": {k: _frac(v) for k, v in result.results.items()},
            "output_mixtures": {
                port: {k: _frac(v) for k, v in mixture.components.items()}
                for port, mixture in machine.output_mixtures.items()
            },
            "waste_tally": _frac(machine.waste_tally),
            "injected": {} if injector is None else dict(injector.injected),
            "failure": None if failure is None else failure.to_dict(),
        }
    )


def record(name: str) -> dict:
    compiled = run_compile(source=SOURCES[name]).compiled
    return {
        "status": plan_status(compiled),
        "plan": plan_digest(compiled),
        "runs": {_label(seed): run_digest(compiled, seed) for seed in SEEDS},
    }


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


def test_golden_covers_the_execute_corpus():
    assert sorted(GOLDEN) == sorted(SOURCES)
    for name, expected in GOLDEN.items():
        assert sorted(expected["runs"]) == sorted(map(_label, SEEDS)), name


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_runs_match_golden(name):
    expected = GOLDEN[name]
    compiled = run_compile(source=SOURCES[name]).compiled
    assert plan_status(compiled) == expected["status"]
    plan = plan_digest(compiled)
    if plan != expected["plan"]:
        if expected["status"] == "lp":
            pytest.skip(f"{name}: this LP solver plans other volumes")
        assert plan == expected["plan"]
    actual = {_label(seed): run_digest(compiled, seed) for seed in SEEDS}
    assert actual == expected["runs"]


if __name__ == "__main__":
    text = json.dumps(
        {name: record(name) for name in sorted(SOURCES)},
        indent=2,
        sort_keys=True,
    ) + "\n"
    if "--write" in sys.argv[1:]:
        GOLDEN_PATH.write_text(text)
    else:
        sys.stdout.write(text)
