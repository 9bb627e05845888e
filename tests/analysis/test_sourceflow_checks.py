"""Every SRC-* check fires on a crafted program — and only then.

The corpus assays must verify clean (notes from bank summarization are
fine); each defect class must produce its code at error/warning
severity; and the verdicts must be identical for every loop trip count,
which is the whole point of analysing the rolled program.
"""

import pytest

from repro.analysis import verify_source
from repro.analysis.sourceflow import MAX_SWEEPS, SRC_CODES
from repro.assays import enzyme, extra, glucose, glycomics, paper_example

# ---------------------------------------------------------------------------
# crafted defects: code -> (source, expected severity)
# ---------------------------------------------------------------------------
BROKEN = {
    "SRC-USE-AFTER-CONSUME": """\
ASSAY t
START
fluid a, b, m, p, eff, waste, out;
MIX a AND b FOR 10;
SEPARATE it MATRIX m USING p FOR 30 INTO eff AND waste;
out = MIX eff AND waste IN RATIOS 1 : 1 FOR 10;
OUTPUT out;
END
""",
    "SRC-DOUBLE-FILL": """\
ASSAY t
START
fluid a, b, r;
VAR i;
FOR i FROM 1 TO 4 START
r = MIX a AND b IN RATIOS 1 : 1 FOR 10;
ENDFOR
OUTPUT r;
END
""",
    "SRC-INDEX-RANGE": """\
ASSAY t
START
fluid a, b;
fluid bank[3];
bank[5] = MIX a AND b FOR 10;
OUTPUT it;
END
""",
    "SRC-DRY-UNDEFINED": """\
ASSAY t
START
fluid a, b, r;
VAR n;
r = MIX a AND b IN RATIOS n : 1 FOR 10;
OUTPUT r;
END
""",
    "SRC-RATIO-NONPOSITIVE": """\
ASSAY t
START
fluid a, b, r;
r = MIX a AND b IN RATIOS 0 - 3 : 1 FOR 10;
OUTPUT r;
END
""",
    "SRC-WHILE-HINT": """\
ASSAY t
START
fluid a, b, r;
VAR x;
x = 1;
WHILE x < 4 HINT 0 - 2 START
x = x + 1;
ENDWHILE
r = MIX a AND b FOR 10;
OUTPUT r;
END
""",
    "SRC-READ-BEFORE-FILL": """\
ASSAY t
START
fluid a, r;
fluid bank[3];
r = MIX bank[2] AND a FOR 10;
bank[2] = MIX a AND a IN RATIOS 1 : 1 FOR 10;
OUTPUT r;
END
""",
    "SRC-ALIASED-MIX": """\
ASSAY t
START
fluid a, b, r;
r = MIX a AND a IN RATIOS 1 : 2 FOR 10;
OUTPUT r;
END
""",
    "SRC-AUX-NOT-INPUT": """\
ASSAY t
START
fluid a, b, m, p, eff, waste;
m = MIX a AND b FOR 10;
SEPARATE a MATRIX m USING p FOR 30 INTO eff AND waste;
OUTPUT eff;
END
""",
    "SRC-RUNTIME-VALUE": """\
ASSAY t
START
fluid a, b, r;
VAR v;
MIX a AND b FOR 10;
SENSE OPTICAL it INTO v;
r = MIX a AND b IN RATIOS v : 1 FOR 10;
OUTPUT r;
END
""",
    "SRC-DIV-ZERO": """\
ASSAY t
START
fluid a, b, r;
VAR n, d;
d = 0;
n = 4 / d;
r = MIX a AND b IN RATIOS 1 : 1 FOR 10;
OUTPUT r;
END
""",
    "SRC-FRACTION-RANGE": """\
ASSAY t
START
fluid a, m, p, eff, waste;
SEPARATE a MATRIX m USING p YIELD 5 : 3 FOR 30 INTO eff AND waste;
OUTPUT eff;
END
""",
    "SRC-INFEASIBLE-MIX": """\
ASSAY t
START
fluid a NOEXCESS, b;
fluid r;
r = MIX a AND b IN RATIOS 1 : 100000 FOR 10;
OUTPUT r;
END
""",
    "SRC-DEAD-FLUID": """\
ASSAY t
START
fluid a, b, r, s;
r = MIX a AND b FOR 10;
s = MIX a AND b FOR 10;
OUTPUT s;
END
""",
    "SRC-DRY-WET-CLASH": """\
ASSAY t
START
fluid a, b, r;
VAR i;
FOR i FROM 1 TO 3 START
r = MIX a AND b FOR 10;
SENSE OPTICAL it INTO i;
ENDFOR
OUTPUT r;
END
""",
}

CORPUS = {
    "figure2": paper_example.SOURCE,
    "glucose": glucose.SOURCE,
    "glycomics": glycomics.SOURCE,
    "enzyme": enzyme.SOURCE,
    "elisa": extra.ELISA_SOURCE,
    "bradford": extra.BRADFORD_SOURCE,
    "pcr-prep": extra.PCR_PREP_SOURCE,
}


@pytest.mark.parametrize("code", sorted(BROKEN))
def test_defect_fires_its_code(code):
    report = verify_source(BROKEN[code], name=code)
    assert code in report.codes(), report.render_text()
    assert report.exit_code != 0
    assert not report.is_clean


@pytest.mark.parametrize("code", sorted(BROKEN))
def test_defect_severity_matches_registry(code):
    report = verify_source(BROKEN[code], name=code)
    registered = SRC_CODES[code].severity
    severities = {f.severity for f in report.findings if f.code == code}
    assert registered in severities


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_verifies_clean_for_all_bounds(name):
    report = verify_source(CORPUS[name], name=name)
    assert report.extras["fixpoint"]["converged"]
    assert report.extras["fixpoint"]["sweeps"] < MAX_SWEEPS
    assert report.is_clean, report.render_text()
    assert report.exit_code == 0


DILUTION_TEMPLATE = """\
ASSAY scale
START
fluid reagent, diluent;
fluid bank[{n}];
VAR i;
FOR i FROM 1 TO {n} START
bank[i] = MIX reagent AND diluent IN RATIOS 1 : 3 FOR 10;
OUTPUT it;
ENDFOR
END
"""


def test_verdict_is_independent_of_trip_count():
    """One fixpoint covers N=1 and N=10000 with identical invariants."""
    reports = {
        n: verify_source(DILUTION_TEMPLATE.format(n=n), name="scale")
        for n in (1, 10, 10_000)
    }
    baseline = reports[1]
    for report in reports.values():
        assert report.is_clean
        assert report.codes() == baseline.codes()
        assert report.extras["fixpoint"]["sweeps"] == baseline.extras["fixpoint"]["sweeps"]
        assert report.extras["fixpoint"]["blocks"] == baseline.extras["fixpoint"]["blocks"]


def test_while_with_widening_terminates():
    source = """\
ASSAY spin
START
fluid a, b, r;
VAR x;
x = 1;
WHILE x < 100 HINT 20 START
x = x * 2;
ENDWHILE
r = MIX a AND b FOR 10;
OUTPUT r;
END
"""
    report = verify_source(source, name="spin")
    assert report.extras["fixpoint"]["converged"]
    assert report.extras["fixpoint"]["sweeps"] < MAX_SWEEPS
    assert report.is_clean, report.render_text()


def test_statically_false_branch_is_pruned():
    source = """\
ASSAY pruned
START
fluid a, b, r;
VAR n;
n = 1;
IF n > 5 THEN
r = MIX a AND a IN RATIOS 1 : 2 FOR 10;
ELSE
r = MIX a AND b FOR 10;
ENDIF
OUTPUT r;
END
"""
    # the aliased mix sits on a statically-dead arm: no finding
    report = verify_source(source, name="pruned")
    assert "SRC-ALIASED-MIX" not in report.codes()
    assert report.is_clean, report.render_text()


def test_guarded_redefinition_is_not_a_definite_error():
    source = """\
ASSAY guarded
START
fluid a, b, r;
VAR v;
MIX a AND b FOR 10;
SENSE OPTICAL it INTO v;
IF v > 5 THEN
r = MIX a AND b FOR 10;
ELSE
r = MIX b AND a FOR 10;
ENDIF
OUTPUT r;
END
"""
    report = verify_source(source, name="guarded")
    errors = [f for f in report.findings if f.severity.value == "error"]
    assert not errors, report.render_text()
