"""Golden pass events: a fixed reference for what every pass reports.

``golden_pass_events.json`` holds, per planning objective and per corpus
entry (``tools/corpus.py`` plus ``gradient_corpus()``), two compiles on
one :class:`~repro.compiler.cache.PlanCache`: a cold one that fills the
cache and a warm one served from it.  For each it records the plan
status, the ``(name, status, round, cache, detail)`` row of every
:class:`~repro.compiler.passes.events.PassEvent` in emission order and
the ``--explain`` text.  A refactor of the pass contract or of the
Figure 6 stages that changes which passes run, skip or hit the cache —
or any word they report — fails here.

As in ``tests/compiler/test_golden.py``, only entries whose plan comes
from DAGSolve (status ``dagsolve``) or is left to run time (status
``runtime``) are recorded: LP-planned entries can differ in the last
digit across the scipy/HiGHS versions the CI matrix installs.

Regenerate after an intended output change with::

    PYTHONPATH=src python tests/compiler/test_pass_event_golden.py --write
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import re
import sys

import pytest

from repro.assays.gradients import gradient_corpus
from repro.compiler.cache import PlanCache
from repro.compiler.passes import PassEventBus, run_compile
from repro.core.hierarchy import VolumeManager
from repro.machine.spec import AQUACORE_SPEC

ROOT = pathlib.Path(__file__).resolve().parents[2]
GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_pass_events.json")
OBJECTIVES = ("default", "waste")
#: plan statuses whose output does not depend on the LP solver.
RECORDED_STATUSES = ("dagsolve", "runtime")
RUNS = ("cold", "warm")


def _load_harness():
    path = ROOT / "tools" / "corpus.py"
    spec = importlib.util.spec_from_file_location("corpus_harness", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


HARNESS = _load_harness()


def corpus_entries() -> list:
    """``tools/corpus.py``'s listing plus the gradient workloads."""
    entries = HARNESS.corpus_entries()
    entries += [(dag.name, {"dag": dag}) for dag in gradient_corpus()]
    return entries


def compile_record(name: str, objective: str, cache: PlanCache) -> dict:
    """One compile of a freshly built entry, reduced to its event record."""
    bus = PassEventBus()
    ctx = run_compile(
        spec=AQUACORE_SPEC,
        manager=VolumeManager(AQUACORE_SPEC.limits, objective=objective),
        cache=cache,
        bus=bus,
        **dict(corpus_entries())[name],
    )
    plan = ctx.compiled.plan
    return {
        "status": plan.status if plan is not None else "runtime",
        "events": [
            [e.name, e.status, e.round, e.cache, e.detail] for e in bus
        ],
        "explain": ctx.pass_manager.explain(ctx),
    }


def entry_records(name: str, objective: str) -> dict:
    """The cold and the warm compile of one entry on one plan cache."""
    cache = PlanCache()
    return {run: compile_record(name, objective, cache) for run in RUNS}


def golden_records() -> dict:
    records: dict = {}
    for objective in OBJECTIVES:
        for name, __ in corpus_entries():
            record = entry_records(name, objective)
            if record["cold"]["status"] in RECORDED_STATUSES:
                records.setdefault(objective, {})[name] = record
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
def test_events_match_golden(objective, name):
    assert entry_records(name, objective) == GOLDEN[objective][name]


def test_golden_names_are_current_entries():
    names = {name for name, __ in corpus_entries()}
    for objective in OBJECTIVES:
        assert GOLDEN[objective], f"no golden records for {objective}"
        assert set(GOLDEN[objective]) <= names, objective


def golden_text(records: dict) -> str:
    """Indented JSON with each event row kept on one line."""
    text = json.dumps(records, indent=1, sort_keys=True)
    return re.sub(
        r"\[\n\s+([^\[\]{}]*?)\n\s*\]",
        lambda m: "[" + re.sub(r",\n\s*", ", ", m.group(1)) + "]",
        text,
    ) + "\n"


if __name__ == "__main__":
    text = golden_text(golden_records())
    if "--write" in sys.argv[1:]:
        GOLDEN_PATH.write_text(text)
    else:
        sys.stdout.write(text)
