"""Mutation property: deleting one instruction from a clean program
either stays clean or trips exactly the check relevant to that opcode.

Fluids are linear resources, so removing a single instruction from a
correct program severs the chain somewhere specific: dropping the
``input`` that fills a reservoir makes a later read a read-before-fill,
dropping a ``move`` strands fluid (dead-fluid) or starves a consumer,
dropping a ``separate`` makes its outlet reads storage-less misuse.
Whatever the analyzer reports must come from that small expected set —
never an unrelated code, never a crash.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyze
from repro.assays import glucose, paper_example
from repro.compiler.passes import run_compile
from repro.ir.instructions import Opcode
from repro.ir.program import AISProgram

# Codes each deleted opcode can plausibly surface downstream.  The point
# of the property is the *absence* of everything else: no interval check
# misfiring, no operand check, no dry/wet clash, no spurious overflow.
ALLOWED = {
    Opcode.INPUT: {
        "read-before-fill",
        "use-after-consume",
        "dead-fluid",
        "insufficient-volume",
    },
    Opcode.MOVE: {
        "read-before-fill",
        "use-after-consume",
        "dead-fluid",
        "double-fill",
        "storage-less-misuse",
        "insufficient-volume",
    },
    Opcode.MOVE_ABS: {
        "read-before-fill",
        "use-after-consume",
        "dead-fluid",
        "double-fill",
        "storage-less-misuse",
        "insufficient-volume",
    },
    Opcode.OUTPUT: {"dead-fluid", "double-fill", "use-after-consume"},
    Opcode.SEPARATE: {
        "read-before-fill",
        "use-after-consume",
        "dead-fluid",
        "storage-less-misuse",
        "double-fill",
    },
    Opcode.SENSE: {"dead-fluid"},
    Opcode.MIX: {"dead-fluid"},
    Opcode.INCUBATE: {"dead-fluid"},
    Opcode.CONCENTRATE: {"dead-fluid"},
    Opcode.DRY_MOV: {"dry-wet-clash", "unknown-operand"},
    Opcode.DRY_ADD: {"dry-wet-clash", "unknown-operand"},
    Opcode.DRY_SUB: {"dry-wet-clash", "unknown-operand"},
    Opcode.DRY_MUL: {"dry-wet-clash", "unknown-operand"},
}

_COMPILED = {
    "figure2": run_compile(source=paper_example.SOURCE).compiled,
    "glucose": run_compile(source=glucose.SOURCE).compiled,
}


def drop_instruction(compiled, index: int) -> AISProgram:
    instructions = list(compiled.program.instructions)
    del instructions[index]
    return AISProgram(
        name=compiled.program.name,
        instructions=instructions,
        input_ports=dict(compiled.program.input_ports),
        machine=compiled.program.machine,
        results=compiled.program.results,
    )


@st.composite
def deletions(draw):
    name = draw(st.sampled_from(sorted(_COMPILED)))
    compiled = _COMPILED[name]
    index = draw(
        st.integers(min_value=0, max_value=len(compiled.program) - 1)
    )
    return compiled, index


@settings(max_examples=60, deadline=None)
@given(deletions())
def test_single_deletion_flagged_by_relevant_check(case):
    compiled, index = case
    deleted = compiled.program.instructions[index]
    mutant = drop_instruction(compiled, index)
    findings = analyze(mutant, compiled.spec)
    allowed = ALLOWED[deleted.opcode]
    unexpected = [d for d in findings if d.code not in allowed]
    assert not unexpected, (
        f"deleting instr {index} ({deleted.opcode.value}) surfaced "
        f"unrelated codes: {[str(d) for d in unexpected]}"
    )


@settings(max_examples=20, deadline=None)
@given(deletions())
def test_baseline_programs_are_clean(case):
    compiled, _ = case
    assert analyze(compiled.program, compiled.spec) == []
