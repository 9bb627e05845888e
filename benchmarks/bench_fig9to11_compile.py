"""Figures 9-11: compiling the three real-world assays to AIS.

Checks the compiled listings against the structure the paper prints
(instruction mix, operand shapes) and times full compilation.
"""

import _report
import pytest

from repro.compiler.passes import run_compile
from repro.ir.instructions import Opcode
from repro.assays import enzyme, glucose, glycomics


def opcode_histogram(program):
    counts = {}
    for instruction in program:
        counts[instruction.opcode.value] = (
            counts.get(instruction.opcode.value, 0) + 1
        )
    return counts


def test_figure9_glucose(benchmark):
    compiled = benchmark(lambda: run_compile(source=glucose.SOURCE).compiled)
    histogram = opcode_histogram(compiled.program)
    # Figure 9(b): 3 inputs, 15 moves (2 per mix + 1 to the sensor each),
    # 5 mixes, 5 senses.
    for opcode, paper_count in (
        ("input", 3),
        ("move", 15),
        ("mix", 5),
        ("sense", 5),
    ):
        _report.record(
            "fig9 glucose AIS",
            f"{opcode} instructions",
            paper_count,
            histogram.get(opcode, 0),
        )
        assert histogram.get(opcode, 0) == paper_count
    _report.record(
        "fig9 glucose AIS",
        "total instructions",
        28,
        len(compiled.program),
    )


def test_figure10_glycomics(benchmark):
    compiled = benchmark(lambda: run_compile(source=glycomics.SOURCE).compiled)
    listing = compiled.listing()
    expected_lines = (
        "separate.AF separator1, 30",
        "separate.LC separator2, 30",
        "separate.LC separator2, 2400",
        "incubate heater1, 37, 30",
        "move separator1.matrix, s",
        "move mixer1, separator2.out1, 1",
    )
    present = sum(1 for line in expected_lines if line in listing)
    _report.record(
        "fig10 glycomics AIS",
        "paper instruction shapes present",
        len(expected_lines),
        present,
    )
    assert present == len(expected_lines)
    histogram = opcode_histogram(compiled.program)
    _report.record(
        "fig10 glycomics AIS", "separate instructions", 3, histogram["separate"]
    )
    _report.record(
        "fig10 glycomics AIS",
        "input instructions (11 fluids + 2 refills)",
        13,
        histogram["input"],
    )


def test_figure11_enzyme(benchmark):
    compiled = benchmark.pedantic(
        lambda: run_compile(source=enzyme.SOURCE).compiled,
        rounds=1,
        iterations=1,
    )
    histogram = opcode_histogram(compiled.program)
    # 12 dilution mixes + 3 extra cascade stages + 64 combination mixes.
    _report.record(
        "fig11 enzyme AIS",
        "mix instructions (paper: 76 pre-transform)",
        76,
        histogram["mix"],
        "cascading adds stages",
    )
    assert histogram["mix"] >= 76
    _report.record(
        "fig11 enzyme AIS", "incubate instructions", 64, histogram["incubate"]
    )
    assert histogram["incubate"] == 64
    _report.record(
        "fig11 enzyme AIS", "sense instructions", 64, histogram["sense"]
    )
    senses = [i for i in compiled.program if i.opcode is Opcode.SENSE]
    assert senses[0].result == "RESULT[1][1][1]"
    assert senses[-1].result == "RESULT[4][4][4]"


def test_figure11_rolled_listing(benchmark):
    """Figure 11(b) *as printed*: loops intact, register-driven relative
    volumes, indexed reservoir banks, dry-arithmetic sense linearisation."""
    from repro.compiler.rolled import render_rolled_source

    listing = benchmark(render_rolled_source, enzyme.SOURCE)
    signatures = (
        "loop0: index i: 1->4",
        "move mixer1, s3, inhi_dilu",   # paper: move mixer1, s2, inh_dil
        "dry-mul r0, 10",
        "move s5(i), mixer1",           # paper: move s3(i), mixer1
        "sense.OD sensor2, RESULT(r6)",  # paper: sense.OD sensor2, RESULT(t6)
    )
    text = listing.render()
    present = sum(1 for s in signatures if s in text)
    _report.record(
        "fig11 enzyme AIS",
        "rolled-form signature lines present",
        len(signatures),
        present,
    )
    _report.record(
        "fig11 enzyme AIS",
        "rolled listing length vs unrolled",
        "an order of magnitude shorter",
        f"{len(listing.lines)} lines vs 576 instructions",
    )
    assert present == len(signatures)
    assert listing.loop_count == 6


def test_reservoir_pressure(benchmark):
    """Figure 11(b) uses indexed reservoir banks; the allocator's peak
    usage quantifies why (16 concurrent fluids before transforms)."""
    compiled = benchmark.pedantic(
        lambda: run_compile(source=enzyme.SOURCE).compiled,
        rounds=1,
        iterations=1,
    )
    peak = compiled.program.meta["allocation_peak"]
    _report.record(
        "fig11 enzyme AIS",
        "peak concurrent reservoirs",
        "12+ (banks s3(i), s5(j), s7(k))",
        peak,
        "inputs freed after their last dilution",
    )
    assert peak >= 12
