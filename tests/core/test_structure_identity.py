"""Compile-cold corpus output with the whole-DAG structure walks patched in.

The structural check, DAGSolve's backward-pass context, the LP
builder's structure table and the cascade transform's extreme-mix scan
read per-node records that each rewrite patches.
:mod:`oracles.structure` keeps the walks they replaced.  Every input of
the compile-cold benchmark corpus (read from
``perfbench/inputs.py``, not edited) is compiled twice in one process, as
``repro compile --certify`` does: once as shipped and once with the
oracle walks patched in.  The listings, plan summaries and pass-event
rows must be identical, including EnzymeN 5 and 6 on ``aquacore-xl``,
whose LP plans ``golden_listings.json`` does not pin.
"""

from __future__ import annotations

import importlib
import importlib.util
import pathlib
import sys

import pytest

from oracles import structure as structure_oracle
from repro.compiler.passes import PassEventBus, run_compile
from repro.core.dag import AssayDAG
from repro.core.hierarchy import VolumeManager
from repro.core.lpmodel import IncrementalLPBuilder
from repro.machine.spec import MACHINES

ROOT = pathlib.Path(__file__).resolve().parents[2]
#: the benchmark's default seed (it picks the random DAGs).
CORPUS_SEED = 1

# the module, not the ``repro.core.dagsolve`` function re-exported over it
dagsolve_module = importlib.import_module("repro.core.dagsolve")
#: the modules that import the extreme-mix scan by name.
SCANNERS = (
    importlib.import_module("repro.core.cascading"),
    importlib.import_module("repro.compiler.passes.stages"),
)


def _load_inputs():
    path = ROOT / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def compile_record(entry) -> dict:
    """One cold certified compile of a freshly built corpus entry."""
    spec = MACHINES[entry.machine]
    bus = PassEventBus()
    ctx = run_compile(
        **entry.make(),
        spec=spec,
        manager=VolumeManager(spec.limits, objective=entry.objective),
        certify=True,
        bus=bus,
    )
    plan = ctx.compiled.plan
    return {
        "listing": ctx.compiled.listing(),
        "plan": plan.summary() if plan is not None else None,
        "events": [(e.name, e.status, e.round, e.cache, e.detail) for e in bus],
    }


def corpus_records(corpus) -> dict:
    return {
        (entry.name, entry.objective, entry.machine): compile_record(entry)
        for entry in corpus
    }


@pytest.fixture(scope="module")
def both_runs():
    corpus = _load_inputs().compile_corpus(CORPUS_SEED)
    shipped = corpus_records(corpus)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(AssayDAG, "validate", structure_oracle.validate)
        patch.setattr(
            dagsolve_module, "_SolveContext", structure_oracle.SolveContext
        )
        patch.setattr(
            IncrementalLPBuilder,
            "_structure",
            staticmethod(structure_oracle.lp_structure),
        )
        for module in SCANNERS:
            patch.setattr(
                module, "find_extreme_mixes", structure_oracle.extreme_mixes
            )
        walked = corpus_records(corpus)
    return shipped, walked


def test_every_corpus_input_compiles_alike(both_runs):
    shipped, walked = both_runs
    assert list(shipped) == list(walked)
    for key, record in shipped.items():
        assert record == walked[key], key


def test_the_corpus_holds_the_tail_inputs(both_runs):
    shipped, __ = both_runs
    for name in ("enzyme-n5", "enzyme-n6"):
        record = shipped[(name, "default", "aquacore-xl")]
        assert record["plan"].startswith("plan for ")
        assert "replicate" in record["plan"]
