"""Property: the source verifier subsumes the unrolled pipeline's verdict.

The whole value of analysing the *rolled* program is that one fixpoint
covers every loop bound.  That claim is only worth anything if it is
sound: whenever the concrete pipeline — unroll at a specific trip count,
then the unrolled linter — finds a *definite* error (or the front end
refuses the program outright), the source-level verifier must report an
error-severity SRC-* finding on the rolled text, without being told N.

Conversely the healthy template must verify clean for every drawn N.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import lint_program, verify_source
from repro.compiler.passes import run_compile
from repro.lang.errors import FrontendError
from repro.machine.spec import AQUACORE_SPEC

MUTATIONS = (
    None,  # healthy dilution series
    "double-fill",  # scalar re-defined on every trip
    "index-range",  # bank index beyond the declared size
    "dry-read",  # dry variable read before any assignment
    "bad-ratio",  # non-positive mix ratio part
    "waste-reuse",  # separation waste consumed downstream
)

#: which SRC code must fire for each mutation (None -> must be clean)
EXPECTED_CODE = {
    "double-fill": "SRC-DOUBLE-FILL",
    "index-range": "SRC-INDEX-RANGE",
    "dry-read": "SRC-DRY-UNDEFINED",
    "bad-ratio": "SRC-RATIO-NONPOSITIVE",
    "waste-reuse": "SRC-USE-AFTER-CONSUME",
}


def build_source(n: int, mutation: str | None) -> str:
    if mutation == "waste-reuse":
        # loop-free: the defect is about consumption, not trip counts
        return """\
ASSAY prop
START
fluid a, b, m, p, eff, waste, out;
MIX a AND b FOR 10;
SEPARATE it MATRIX m USING p FOR 30 INTO eff AND waste;
out = MIX eff AND waste IN RATIOS 1 : 1 FOR 10;
OUTPUT out;
END
"""
    body = {
        None: (
            "bank[i] = MIX reagent AND diluent IN RATIOS 1 : 3 FOR 10;\n"
            "OUTPUT it;"
        ),
        "double-fill": "r = MIX reagent AND diluent IN RATIOS 1 : 3 FOR 10;",
        "index-range": (
            f"bank[{n + 1}] = MIX reagent AND diluent "
            "IN RATIOS 1 : 3 FOR 10;\nOUTPUT it;"
        ),
        "dry-read": (
            "bank[i] = MIX reagent AND diluent IN RATIOS u : 3 FOR 10;\n"
            "OUTPUT it;"
        ),
        "bad-ratio": (
            "bank[i] = MIX reagent AND diluent IN RATIOS 0 - 1 : 3 "
            "FOR 10;\nOUTPUT it;"
        ),
    }[mutation]
    tail = "OUTPUT r;\n" if mutation == "double-fill" else ""
    return (
        "ASSAY prop\n"
        "START\n"
        "fluid reagent, diluent, r;\n"
        f"fluid bank[{n}];\n"
        "VAR i, u;\n"
        f"FOR i FROM 1 TO {n} START\n"
        f"{body}\n"
        "ENDFOR\n"
        f"{tail}"
        "END\n"
    )


def unrolled_has_definite_error(source: str) -> bool:
    """Ground truth at a concrete bound: front-end raise or lint error."""
    try:
        compiled = run_compile(source=source).compiled
    except FrontendError:
        return True
    report = lint_program(compiled.program, AQUACORE_SPEC)
    return report.counts.get("error", 0) > 0


@given(
    n=st.integers(min_value=2, max_value=12),
    mutation=st.sampled_from(MUTATIONS),
)
@settings(max_examples=60, deadline=None)
def test_definite_unrolled_errors_are_subsumed(n, mutation):
    source = build_source(n, mutation)
    report = verify_source(source, name="prop")
    assert report.extras["fixpoint"]["converged"]
    src_errors = {
        f.code for f in report.findings if f.severity.value == "error"
    }
    if unrolled_has_definite_error(source):
        assert src_errors, (
            f"unrolled pipeline rejects n={n} mutation={mutation} but the "
            f"source verifier found no error:\n{report.render_text()}"
        )
        if mutation is not None:
            assert EXPECTED_CODE[mutation] in src_errors
    if mutation is None:
        assert not src_errors, report.render_text()


@given(n=st.integers(min_value=2, max_value=12))
@settings(max_examples=20, deadline=None)
def test_healthy_template_is_clean_and_bound_independent(n):
    report = verify_source(build_source(n, None), name="prop")
    baseline = verify_source(build_source(2, None), name="prop")
    assert report.is_clean, report.render_text()
    assert not unrolled_has_definite_error(build_source(n, None))
    # same invariants regardless of the drawn bound
    assert report.codes() == baseline.codes()
    assert report.extras["fixpoint"]["sweeps"] == baseline.extras["fixpoint"]["sweeps"]
