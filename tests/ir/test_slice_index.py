"""The slicing index answers every query as the rescanning oracle does.

:class:`repro.ir.slicing.SliceIndex` builds a program's def-use facts once;
:mod:`oracles.slicing` is the slicer it replaced, which rescans the program
on every query.  Both are asked every query — the chains, the slice of
every instruction, and the slice of every location the program touches
before every instruction — over generated straight-line programs and over
every program of the execute corpus.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from analysis.test_certify_corpus import CORPUS
from oracles import slicing as oracle
from repro.compiler.passes import run_compile
from repro.ir.instructions import (
    incubate,
    input_,
    mix,
    move,
    output,
    sense,
    separate,
)
from repro.ir.slicing import SliceIndex, _reads_writes

RESERVOIRS = ["s1", "s2", "s3"]
UNITS = ["mixer1", "heater1", "sensor1", "separator1"]
SUBPORTS = [
    "separator1.matrix",
    "separator1.pusher",
    "separator1.out1",
    "separator1.out2",
]
CELLS = RESERVOIRS + UNITS + SUBPORTS

cells = st.sampled_from(CELLS)
units = st.sampled_from(UNITS)
instructions = st.one_of(
    st.builds(input_, cells, st.sampled_from(["ip1", "ip2"])),
    st.builds(move, cells, cells),
    st.builds(move, cells, cells, st.integers(1, 4)),
    st.builds(mix, units, st.just(10)),
    st.builds(incubate, units, st.just(37), st.just(30)),
    st.builds(separate, units, st.sampled_from(["AF", "CE"]), st.just(30)),
    st.builds(sense, units, st.just("OD"), st.just("r")),
    st.builds(output, st.just("op1"), cells),
)
programs = st.lists(instructions, max_size=30)


def touched(program) -> set[str]:
    """Every location the program reads, writes or kills."""
    return {
        location
        for instruction in program
        for effect in _reads_writes(instruction)
        for location in effect
    }


def assert_agrees(program) -> int:
    """Assert the index matches the oracle everywhere; the query count."""
    index = SliceIndex(program)
    assert index.chains == oracle.def_use_chains(program)
    for start in range(len(program)):
        assert index.backward_slice(start) == oracle.backward_slice(
            program, start
        )
    queries = 0
    for location in sorted(touched(program)):
        for before in range(len(program) + 1):
            assert index.slice_for_location(
                location, before
            ) == oracle.slice_for_location(program, location, before), (
                location,
                before,
            )
            queries += 1
    return queries


@given(programs)
@settings(max_examples=150, deadline=None)
def test_generated_programs_agree(program):
    assert_agrees(program)


@pytest.fixture(scope="module")
def corpus_programs():
    return {
        name: run_compile(source=source).compiled.program.instructions
        for name, source in CORPUS.items()
    }


def test_execute_corpus_agrees(corpus_programs, monkeypatch):
    """Every (program, location, index) query of the execute corpus.

    The oracle's per-instruction effects and its chains are memoised here
    (keyed by the instruction's identity) so the enzyme program's ~15k
    queries take seconds, not minutes; its algorithms run unchanged.
    """
    assert set(corpus_programs) == {
        "figure2", "glucose", "glycomics", "enzyme",
        "elisa", "bradford", "pcr-prep", "custom-example",
    }
    queries = 0
    for program in corpus_programs.values():
        effects = {id(i): _reads_writes(i) for i in program}
        monkeypatch.setattr(oracle, "_reads_writes", lambda i: effects[id(i)])
        chains = oracle.def_use_chains(program)
        monkeypatch.setattr(oracle, "def_use_chains", lambda p: chains)
        queries += assert_agrees(program)
        monkeypatch.undo()
    assert queries > 20_000


def test_kill_then_write_at_one_instruction():
    """A draining move into its own source kills then rewrites it: the
    location is live after that instruction, as the oracle has it."""
    program = [input_("s1", "ip1"), move("s1", "s1"), move("mixer1", "s1", 1)]
    index = SliceIndex(program)
    assert index.slice_for_location("s1", 2) == [0, 1]
    assert_agrees(program)
