"""The AIS text parser: render -> parse -> render is the identity."""

from fractions import Fraction

import pytest

from repro.assays import glucose, paper_example
from repro.compiler.passes import run_compile
from repro.ir.instructions import Opcode
from repro.ir.parse import AISParseError, parse_ais


def test_round_trip_paper_example():
    compiled = run_compile(source=paper_example.SOURCE).compiled
    text = compiled.program.render()
    reparsed = parse_ais(text)
    assert reparsed.render() == text
    assert reparsed.name == compiled.program.name
    assert len(reparsed.instructions) == len(compiled.program.instructions)


def test_round_trip_glucose():
    compiled = run_compile(source=glucose.SOURCE).compiled
    text = compiled.program.render()
    assert parse_ais(text).render() == text


def test_parse_volumes_are_exact_fractions():
    program = parse_ais("p{\n  input s1, ip1, 12.5 ;Dye\n}")
    (instr,) = program.instructions
    assert instr.opcode is Opcode.INPUT
    assert instr.abs_volume == Fraction(25, 2)
    assert instr.comment == "Dye"


def test_parse_without_wrapper_braces():
    program = parse_ais("input s1, ip1 ;Dye\nmix mixer1, 10", name="bare")
    assert program.name == "bare"
    assert len(program.instructions) == 2


def test_parse_separate_and_sense_modes():
    program = parse_ais(
        "p{\n"
        "  separate.AF separator1, 30\n"
        "  sense.OD sensor2, Reading[1]\n"
        "}"
    )
    sep, sense = program.instructions
    assert sep.opcode is Opcode.SEPARATE and sep.mode == "AF"
    assert sense.opcode is Opcode.SENSE and sense.mode == "OD"
    assert sense.result == "Reading[1]"


def test_parse_dry_ops():
    program = parse_ais("p{\n  dry-mov r1, 5\n  dry-add r2, r1\n}")
    mov, add = program.instructions
    assert mov.opcode is Opcode.DRY_MOV
    assert mov.value == 5
    assert add.opcode is Opcode.DRY_ADD
    assert add.value == "r1"


@pytest.mark.parametrize(
    "bad",
    [
        "p{\n  frobnicate s1\n}",
        "p{\n  input s1\n}",
        "p{\n  move-abs mixer1, s1, notanumber\n}",
        "p{\n  separate separator1, 30\n}",
    ],
)
def test_parse_errors_carry_line_numbers(bad):
    with pytest.raises(AISParseError) as excinfo:
        parse_ais(bad)
    assert "line" in str(excinfo.value)


def test_parse_unclosed_brace():
    with pytest.raises(AISParseError):
        parse_ais("p{")
