"""Regeneration reads one slicing index per run.

The executor builds a :class:`~repro.ir.slicing.SliceIndex` at a run's
first regeneration and answers every later slice query — nested ones
included — from it.  These tests count the builds, and check that the
index changes nothing a recovery does: stress reports are byte-identical
to the ones produced with the rescanning oracle slicer patched in.
"""

import pytest

from oracles import slicing as oracle
from repro.assays import enzyme, extra, glycomics
from repro.compiler.passes import run_compile
from repro.ir.slicing import SliceIndex
from repro.machine.faults import FaultInjector, FaultPlan
from repro.runtime import executor as executor_module
from repro.runtime.executor import AssayExecutor
from repro.runtime.stress import stress_compiled

pytestmark = pytest.mark.stress


@pytest.fixture(scope="module")
def compiled():
    sources = {
        "enzyme": enzyme.SOURCE,
        "pcr-prep": extra.PCR_PREP_SOURCE,
        "glycomics": glycomics.SOURCE,
    }
    return {
        name: run_compile(source=source).compiled
        for name, source in sources.items()
    }


@pytest.fixture
def builds(monkeypatch):
    """Every SliceIndex construction, by whatever caller."""
    built = []
    original = SliceIndex.__init__

    def counting(self, program):
        built.append(len(program))
        original(self, program)

    monkeypatch.setattr(SliceIndex, "__init__", counting)
    return built


class TestOneIndexPerRun:
    def test_fault_free_run_builds_none(self, compiled, builds):
        result = AssayExecutor(compiled["enzyme"]).run()
        assert result.succeeded and result.regenerations == 0
        assert builds == []

    def test_faulted_run_builds_one(self, compiled, builds):
        """A build per regeneration (60 here) fails this."""
        result = AssayExecutor(
            compiled["enzyme"],
            injector=FaultInjector(FaultPlan.seeded(0, 0.05)),
            capture_failures=True,
        ).run()
        assert result.regenerations >= 20
        assert builds == [len(compiled["enzyme"].program)]


class OracleSlicer:
    """The executor's slicer interface, answered by the rescanning oracle."""

    def __init__(self, program):
        self.program = program

    def slice_for_location(self, location, before):
        return oracle.slice_for_location(self.program, location, before)


@pytest.mark.parametrize(
    "name,seeds", [("enzyme", 4), ("pcr-prep", 10), ("glycomics", 10)]
)
def test_recovery_is_byte_identical_to_oracle(compiled, monkeypatch, name, seeds):
    """Run in one process, so both sides execute the same plan.  pcr-prep's
    ten seeds include a scenario that fails (a CapacityError at seed 6);
    glycomics is runtime-deferred."""
    indexed = stress_compiled(compiled[name], seeds=seeds)
    assert indexed.recoveries_by_action()["regeneration"] > 0
    monkeypatch.setattr(executor_module, "SliceIndex", OracleSlicer)
    rescanned = stress_compiled(compiled[name], seeds=seeds)
    assert indexed.render_json() == rescanned.render_json()
