"""Property: the static race detector subsumes the dynamic certifier.

``analyze_races`` claims its verdict holds for *every* interleaving the
barriers admit.  The dynamic oracle is ``certify_schedule`` replaying one
*concrete* interleaving of the merged instruction stream.  Soundness is
the differential statement: for every drawn interleaving of two assays,
every dynamic ``SCHED-*`` error that appears only in the merged replay
(not in either solo replay) must be subsumed by a static ``RACE-*``
finding on the same resource.  Conversely, a statically race-free pair
must replay clean under every drawn interleaving.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.certify import certify_schedule
from repro.analysis.races import analyze_races
from repro.ir.instructions import input_, mix, move, output, sense
from repro.ir.program import AISProgram
from repro.machine.spec import AQUACORE_SPEC

#: dynamic error code -> static codes allowed to subsume it.  GUARDED is
#: always admissible: a possible-race note still covers the resource.
SUBSUMES = {
    "SCHED-DOUBLE-BOOK": {"RACE-WW", "RACE-RW", "RACE-GUARDED"},
    "SCHED-DRY-PUMP": {"RACE-WW", "RACE-RW", "RACE-GUARDED"},
    "SCHED-PORT-CLASH": {"RACE-PORT", "RACE-GUARDED"},
    "SCHED-UNROUTABLE": {"RACE-UNROUTABLE"},
    "SCHED-ROUTE-THROUGH": {"RACE-ROUTE"},
    "SCHED-ROUTE-OVERLAP": {"RACE-ROUTE"},
}


def _program(name, *instructions):
    program = AISProgram(name=name, machine=AQUACORE_SPEC.name)
    program.extend(instructions)
    return program


def _assay(name, *, port, fluid, reservoir, unit, out):
    return _program(
        name,
        input_(reservoir, port, abs_volume=Fraction(10), meta={"node": fluid}),
        move(unit, reservoir),
        mix(unit, 3),
        output(out, unit),
    )


def _pairs():
    """Template pairs: three conflicting shapes and one healthy one."""
    return {
        "shared-mixer": (
            _assay("a", port="ip1", fluid="A", reservoir="s1",
                   unit="mixer1", out="op1"),
            _assay("b", port="ip2", fluid="B", reservoir="s2",
                   unit="mixer1", out="op2"),
        ),
        "shared-reservoir": (
            _assay("a", port="ip1", fluid="A", reservoir="s1",
                   unit="mixer1", out="op1"),
            _assay("b", port="ip2", fluid="B", reservoir="s1",
                   unit="mixer2", out="op2"),
        ),
        "port-clash": (
            _assay("a", port="ip1", fluid="A", reservoir="s1",
                   unit="mixer1", out="op1"),
            _assay("b", port="ip1", fluid="B", reservoir="s2",
                   unit="mixer2", out="op2"),
        ),
        "sense-vs-fill": (
            _program(
                "a",
                input_("s1", "ip1", abs_volume=Fraction(10),
                       meta={"node": "A"}),
                move("sensor1", "s1"),
            ),
            _program(
                "b",
                input_("s2", "ip2", abs_volume=Fraction(10),
                       meta={"node": "B"}),
                move("sensor1", "s2"),
                sense("sensor1", "OD", "r0"),
            ),
        ),
        "disjoint": (
            _assay("a", port="ip1", fluid="A", reservoir="s1",
                   unit="mixer1", out="op1"),
            _assay("b", port="ip2", fluid="B", reservoir="s2",
                   unit="mixer2", out="op2"),
        ),
    }


def _interleave(a, b, picks):
    """Merge two programs into one stream; ``picks`` chooses the source
    program at each step (subsequence order is preserved)."""
    merged = AISProgram(name=f"{a.name}|{b.name}", machine=a.machine)
    cursors = [iter(a.instructions), iter(b.instructions)]
    remaining = [len(a.instructions), len(b.instructions)]
    queue = list(picks)
    while remaining[0] or remaining[1]:
        choice = queue.pop(0) if queue else 0
        source = choice if remaining[choice] else 1 - choice
        merged.append(next(cursors[source]))
        remaining[source] -= 1
    return merged


def _base(operand):
    return (operand or "").split(".")[0]


def _error_keys(diagnostics):
    return {
        (d.code, _base(d.operand))
        for d in diagnostics
        if d.severity.value == "error"
    }


def _picks(pair_names):
    return st.tuples(
        st.sampled_from(pair_names),
        st.lists(st.integers(min_value=0, max_value=1),
                 min_size=16, max_size=16),
    )


PAIR_NAMES = sorted(_pairs())


@given(_picks(PAIR_NAMES))
@settings(max_examples=60, deadline=None)
def test_static_races_subsume_dynamic_schedule_errors(case):
    pair_name, picks = case
    a, b = _pairs()[pair_name]
    merged = _interleave(a, b, picks)
    assert len(merged.instructions) == (
        len(a.instructions) + len(b.instructions)
    )

    solo = _error_keys(certify_schedule(a, AQUACORE_SPEC))
    solo |= _error_keys(certify_schedule(b, AQUACORE_SPEC))
    dynamic = _error_keys(certify_schedule(merged, AQUACORE_SPEC))
    escaped = dynamic - solo

    report = analyze_races([a, b], AQUACORE_SPEC, share_storage=True)
    static_by_base = {}
    for finding in report.findings:
        static_by_base.setdefault(_base(finding.operand), set()).add(
            finding.code
        )

    for code, base in escaped:
        covering = static_by_base.get(base, set())
        assert covering, (
            f"dynamic {code} on {base!r} (pair {pair_name!r}, picks "
            f"{picks}) escaped the static detector: {report.render_text()}"
        )
        allowed = SUBSUMES.get(code)
        if allowed is not None:
            assert covering & allowed, (
                f"dynamic {code} on {base!r} covered only by {covering}, "
                f"expected one of {allowed}"
            )


@given(_picks(["disjoint"]))
@settings(max_examples=30, deadline=None)
def test_race_free_pair_replays_clean_under_every_interleaving(case):
    _, picks = case
    a, b = _pairs()["disjoint"]
    report = analyze_races([a, b], AQUACORE_SPEC, share_storage=True)
    assert not [
        d for d in report.findings if d.severity.value == "error"
    ], report.render_text()
    merged = _interleave(a, b, picks)
    dynamic = _error_keys(certify_schedule(merged, AQUACORE_SPEC))
    assert dynamic == set(), dynamic


def test_serialized_concatenation_matches_full_barrier():
    """Running one assay strictly after the other is the concrete witness
    of the full-barrier schedule: both oracles must agree it is safe."""
    a, b = _pairs()["shared-mixer"]
    report = analyze_races(
        [a, b], AQUACORE_SPEC,
        barriers=[(len(a.instructions), 0)],
        share_storage=True,
    )
    assert report.findings == [], report.render_text()
    merged = _interleave(a, b, [0] * len(a.instructions) + [1] * 16)
    assert _error_keys(certify_schedule(merged, AQUACORE_SPEC)) == set()
