"""The occupancy walk against the machine interpreter.

Lint, certify and the race detector all read one abstract occupancy
walk (:class:`repro.analysis.dataflow.ForwardAnalysis`), so the
interpreter is the independent concrete oracle for it: every static-plan
corpus listing is stepped one instruction at a time on
``AssayExecutor(compiled).machine`` with the executor's own volume
resolver and guard decisions, and before each instruction every location
or separator well the interpreter says holds fluid must be ``HOLDS`` or
``UNKNOWN`` in the walk — never ``EMPTY`` or ``CONSUMED``.

A listing is checked up to its end, or up to its first interpreter
error (the walk has nothing concrete to agree with after that).
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

from repro.analysis.dataflow import SEPARATOR_SUBPORTS, ForwardAnalysis
from repro.analysis.state import AbstractState, ContentKind
from repro.compiler.passes import run_compile
from repro.machine.errors import MachineError
from repro.machine.spec import MACHINES
from repro.runtime.executor import AssayExecutor

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _corpus_entries() -> list[tuple[str, dict]]:
    path = ROOT / "tools" / "corpus.py"
    spec = importlib.util.spec_from_file_location("corpus_harness", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.corpus_entries()


ENTRIES = dict(_corpus_entries())
MACHINE_NAMES = ("aquacore", "aquacore-xl")


def _fluid_locations(spec) -> list[str]:
    locations = list(spec.reservoir_names())
    for unit in spec.functional_units:
        locations.append(unit.name)
        if unit.kind == "separator":
            locations += [f"{unit.name}.{sub}" for sub in SEPARATOR_SUBPORTS]
    return locations


def _concrete_occupancy(compiled) -> list[frozenset[str]]:
    """Locations holding fluid before each instruction, on the machine."""
    executor = AssayExecutor(compiled)
    machine = executor.machine
    locations = _fluid_locations(compiled.spec)
    occupied: list[frozenset[str]] = []
    for index, instruction in enumerate(compiled.program):
        occupied.append(
            frozenset(
                location
                for location in locations
                if machine.component(location).volume > 0
            )
        )
        if not executor._guard_allows(instruction):
            continue
        try:
            machine.execute(instruction, resolver=executor.resolver, index=index)
        except MachineError:
            break
    return occupied


@pytest.mark.parametrize("machine", MACHINE_NAMES)
@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_walk_covers_interpreter_occupancy(machine, name):
    compiled = run_compile(spec=MACHINES[machine], **ENTRIES[name]).compiled
    if not compiled.is_static:
        pytest.skip("runtime-planned: no static volumes to execute")
    concrete = _concrete_occupancy(compiled)
    missed: list[str] = []

    def observe(index: int, state: AbstractState) -> None:
        if index >= len(concrete):
            return
        for location in sorted(concrete[index]):
            kind = state.get(location).kind
            if kind not in (ContentKind.HOLDS, ContentKind.UNKNOWN):
                missed.append(
                    f"before {index} `{compiled.program[index].render()}`: "
                    f"{location} holds fluid but the walk says {kind.value}"
                )

    ForwardAnalysis(compiled.program, compiled.spec, observe=observe)
    assert not missed, "\n".join(missed[:10])
