"""Unit tests for the fluid-safety checks on hand-written broken programs."""

from fractions import Fraction

from repro.analysis import analyze, check_codes, lint_text
from repro.analysis.certify import certify_program, certify_schedule
from repro.compiler.diagnostics import Severity
from repro.ir.instructions import input_, move_abs
from repro.ir.parse import parse_ais
from repro.ir.program import AISProgram
from repro.machine.spec import AQUACORE_SPEC


def codes_of(text: str):
    return [d.code for d in lint_text(text).findings]


def test_registry_covers_documented_codes():
    expected = {
        "use-after-consume",
        "read-before-fill",
        "double-fill",
        "dead-fluid",
        "static-overflow",
        "static-underflow",
        "insufficient-volume",
        "storage-less-misuse",
        "dry-wet-clash",
        "unknown-operand",
        "port-misuse",
        "unit-kind-mismatch",
    }
    assert expected <= set(check_codes())


def test_use_after_consume_on_drained_reservoir():
    findings = lint_text(
        "p{\n"
        "  input s1, ip1 ;Sample\n"
        "  move mixer1, s1\n"
        "  move mixer2, s1, 1\n"
        "}"
    ).findings
    codes = [d.code for d in findings]
    assert "use-after-consume" in codes
    finding = next(d for d in findings if d.code == "use-after-consume")
    assert finding.severity is Severity.ERROR
    assert finding.instruction == 2
    assert finding.operand == "s1"


def test_output_then_read_is_use_after_consume():
    assert "use-after-consume" in codes_of(
        "p{\n"
        "  input s1, ip1 ;Sample\n"
        "  output op1, s1\n"
        "  move mixer1, s1, 1\n"
        "}"
    )


def test_read_before_fill():
    codes = codes_of("p{\n  move mixer1, s1, 1\n}")
    assert codes == ["read-before-fill"]


def test_cascade_suppression_reports_root_cause_once():
    # Three reads of the same consumed reservoir: one error, not three.
    findings = lint_text(
        "p{\n"
        "  input s1, ip1 ;A\n"
        "  move mixer1, s1\n"
        "  move mixer2, s1, 1\n"
        "  move mixer3, s1, 1\n"
        "  mix mixer1, 10\n"
        "}"
    ).findings
    assert sum(1 for d in findings if d.code == "use-after-consume") == 1


def test_double_fill():
    codes = codes_of(
        "p{\n  input s1, ip1 ;A\n  input s1, ip2 ;B\n  output op1, s1\n}"
    )
    assert "double-fill" in codes


def test_dead_fluid_requires_a_product_sink():
    # s2 never reaches the output: flagged.
    with_sink = codes_of(
        "p{\n"
        "  input s1, ip1 ;A\n"
        "  input s2, ip2 ;B\n"
        "  output op1, s1\n"
        "}"
    )
    assert "dead-fluid" in with_sink
    # A program that delivers nothing off-chip (result parked on the
    # machine, like the paper's Figure 2) must not drown in warnings.
    no_sink = codes_of(
        "p{\n  input s1, ip1 ;A\n  move mixer1, s1\n  mix mixer1, 10\n}"
    )
    assert "dead-fluid" not in no_sink


def test_static_overflow_is_definite():
    overflowing = codes_of(
        "p{\n"
        "  input s1, ip1, 100 ;A\n"
        "  input s2, ip2, 100 ;B\n"
        "  move-abs mixer1, s1, 80\n"
        "  move-abs mixer1, s2, 80\n"
        "  mix mixer1, 10\n"
        "  output op1, mixer1\n"
        "}"
    )
    assert "static-overflow" in overflowing
    # Unknown relative volumes must NOT trigger it (no definite bound).
    relative = codes_of(
        "p{\n"
        "  input s1, ip1 ;A\n"
        "  move mixer1, s1, 1\n"
        "  mix mixer1, 10\n"
        "  output op1, mixer1\n"
        "}"
    )
    assert "static-overflow" not in relative


def test_static_underflow_below_least_count():
    assert "static-underflow" in codes_of(
        "p{\n  input s1, ip1 ;A\n  move-abs mixer1, s1, 0.05\n}"
    )


def test_insufficient_volume():
    assert "insufficient-volume" in codes_of(
        "p{\n  input s1, ip1, 10 ;A\n  move-abs mixer1, s1, 50\n}"
    )


def test_storage_less_outlet_read_twice():
    findings = lint_text(
        "p{\n"
        "  input s1, ip1 ;Sample\n"
        "  move separator1, s1\n"
        "  separate.AF separator1, 30\n"
        "  move mixer1, separator1.out1\n"
        "  move mixer2, separator1.out1\n"
        "}"
    ).findings
    assert any(
        d.code == "storage-less-misuse" and d.instruction == 4
        for d in findings
    )


def test_storage_less_outlet_read_before_separate():
    assert "storage-less-misuse" in codes_of(
        "p{\n  move mixer1, separator1.out1, 1\n}"
    )


def test_dry_wet_clash():
    codes = codes_of(
        "p{\n"
        "  input s1, ip1 ;A\n"
        "  dry-mov s1, 5\n"
        "  output op1, s1\n"
        "}"
    )
    assert "dry-wet-clash" in codes


def test_unknown_operand_and_port_misuse():
    codes = codes_of(
        "p{\n  input s1, op1 ;A\n  move mixer1, s99, 1\n  output op1, s1\n}"
    )
    assert "port-misuse" in codes
    assert "unknown-operand" in codes


def test_unit_kind_mismatch():
    codes = codes_of(
        "p{\n"
        "  input s1, ip1 ;A\n"
        "  move heater1, s1\n"
        "  mix heater1, 10\n"
        "  output op1, heater1\n"
        "}"
    )
    assert "unit-kind-mismatch" in codes


def test_sense_mode_mismatch():
    codes = codes_of(
        "p{\n"
        "  input s1, ip1 ;A\n"
        "  move sensor2, s1\n"
        "  sense.FL sensor2, r\n"
        "}"
    )
    assert "unit-kind-mismatch" in codes


def test_analyze_accepts_parsed_program_directly():
    program = parse_ais("p{\n  move mixer1, s1, 1\n}")
    findings = analyze(program)
    assert [d.code for d in findings] == ["read-before-fill"]


def test_findings_sorted_by_instruction():
    findings = lint_text(
        "p{\n"
        "  move mixer1, s1, 1\n"
        "  move mixer2, s2, 1\n"
        "  move mixer3, s3, 1\n"
        "}"
    ).findings
    indices = [d.instruction for d in findings]
    assert indices == sorted(indices)


def test_guarded_fill_is_weak():
    """A guarded load may not run (Section 3.5), so a later load into the
    same location is not a definite double-fill; lint and certify agree."""
    guarded = input_("s1", "ip1", abs_volume=Fraction(10))
    guarded.meta["guard"] = ("c0", True)
    program = AISProgram(name="hand", machine=AQUACORE_SPEC.name)
    program.extend([guarded, input_("s1", "ip2", abs_volume=Fraction(10))])
    assert "double-fill" not in [d.code for d in analyze(program, AQUACORE_SPEC)]
    assert not certify_schedule(program, AQUACORE_SPEC)


def test_residue_refill_is_flagged_by_lint_and_certify():
    """A metered draw leaves residue behind: loading the reservoir again
    is a double-fill to lint and a double-book to the certifier."""
    program = parse_ais(
        "p{\n"
        "  input s1, ip1, 40 ;Sample\n"
        "  move mixer1, s1, 1\n"
        "  input s1, ip2, 40 ;Buffer\n"
        "}"
    )
    assert "double-fill" in [d.code for d in analyze(program)]
    assert "SCHED-DOUBLE-BOOK" in certify_program(program).codes()


# -- static-volume boundaries: the walk counts in least counts ------------
def _volume_findings(text: str):
    return [
        (d.code, d.severity.value, d.message)
        for d in lint_text(text).findings
        if d.code in ("static-underflow", "static-overflow", "insufficient-volume")
    ]


def test_walk_counts_volumes_in_least_counts():
    """On the 0.1 nl machine a 0.1 nl draw is one least count (an int),
    a 100 nl reservoir holds 1000, and a sub-least-count draw is the only
    place a Fraction appears."""
    from repro.analysis.dataflow import AccessKind, ForwardAnalysis

    walk = ForwardAnalysis(
        parse_ais(
            "p{\n  input s1, ip1, 10 ;A\n  move-abs mixer1, s1, 0.1\n"
            "  move-abs mixer2, s1, 0.05\n}"
        ),
        AQUACORE_SPEC,
    )
    draws = [a for a in walk.accesses if a.kind is AccessKind.READ_METERED]
    assert [a.moved for a in draws] == [(100, 100), (1, 1), (Fraction(1, 2),) * 2]
    assert type(draws[1].moved.lo) is int
    assert draws[1].place.capacity == 1000
    assert walk.nl(draws[2].moved.lo) == Fraction(1, 20)


def test_static_underflow_boundary_is_one_least_count():
    assert _volume_findings(
        "p{\n  input s1, ip1, 10 ;A\n  move-abs mixer1, s1, 0.1\n}"
    ) == []
    assert _volume_findings(
        "p{\n  input s1, ip1, 10 ;A\n  move-abs mixer1, s1, 0.05\n}"
    ) == [
        (
            "static-underflow",
            "error",
            "`move-abs mixer1, s1, 0.05` meters 0.05 nl, below the least "
            "count of 0.1 nl",
        )
    ]


def test_static_underflow_on_a_non_decimal_volume():
    """1/30 nl is a third of a least count; 1/3 nl clears it."""
    for volume, flagged in ((Fraction(1, 30), True), (Fraction(1, 3), False)):
        program = AISProgram(name="hand", machine=AQUACORE_SPEC.name)
        program.extend(
            [
                input_("s1", "ip1", abs_volume=Fraction(10)),
                move_abs("mixer1", "s1", volume),
            ]
        )
        codes = [d.code for d in analyze(program, AQUACORE_SPEC)]
        assert ("static-underflow" in codes) is flagged, volume


def test_static_overflow_boundary_is_the_capacity():
    assert _volume_findings("p{\n  input s1, ip1, 100 ;A\n}") == []
    assert _volume_findings("p{\n  input s1, ip1, 100.1 ;A\n}") == [
        (
            "static-overflow",
            "warning",
            "`input s1, ip1 ;A` brings s1 to at least 100.1 nl, over its "
            "capacity of 100 nl; the input port clamps to free space",
        )
    ]
    fill = (
        "p{\n  input s1, ip1, 100 ;A\n  input s2, ip2, 100 ;B\n"
        "  move-abs mixer1, s1, 60\n  move-abs mixer1, s2, %s\n}"
    )
    assert _volume_findings(fill % "40") == []
    assert _volume_findings(fill % "40.1") == [
        (
            "static-overflow",
            "error",
            "`move-abs mixer1, s2, 40.1` brings mixer1 to at least 100.1 nl, "
            "over its capacity of 100 nl",
        )
    ]


def test_insufficient_volume_fires_only_above_the_bound():
    assert _volume_findings(
        "p{\n  input s1, ip1, 10 ;A\n  move-abs mixer1, s1, 10\n}"
    ) == []
    assert _volume_findings(
        "p{\n  input s1, ip1, 10 ;A\n  move-abs mixer1, s1, 10.1\n}"
    ) == [
        (
            "insufficient-volume",
            "error",
            "`move-abs mixer1, s1, 10.1` draws 10.1 nl but s1 can hold at "
            "most 10 nl here",
        )
    ]
