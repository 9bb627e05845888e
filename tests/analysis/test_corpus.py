"""The clean-corpus gate: every shipped assay lints clean.

Every program the compiler generates from the repo's own corpus — the
paper benchmarks, the extra protocols, and the examples' custom assay —
must produce zero findings, both analyzed in memory and after a
render -> parse round trip of its textual listing.
"""

import pytest

from repro.analysis import lint_program, lint_text
from repro.assays import enzyme, extra, glucose, glycomics, paper_example
from repro.compiler.passes import run_compile

CORPUS = {
    "figure2": paper_example.SOURCE,
    "glucose": glucose.SOURCE,
    "glycomics": glycomics.SOURCE,
    "enzyme": enzyme.SOURCE,
    "elisa": extra.ELISA_SOURCE,
    "bradford": extra.BRADFORD_SOURCE,
    "pcr-prep": extra.PCR_PREP_SOURCE,
}


def _custom_assay_source() -> str:
    import importlib.util
    import pathlib

    path = (
        pathlib.Path(__file__).resolve().parents[2]
        / "examples"
        / "custom_assay.py"
    )
    spec = importlib.util.spec_from_file_location("custom_assay", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SOURCE


CORPUS["custom-example"] = _custom_assay_source()


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_compiled_corpus_lints_clean(name):
    compiled = run_compile(source=CORPUS[name]).compiled
    report = lint_program(compiled.program, compiled.spec)
    assert report.counts["error"] == 0, report.render_text()
    assert report.is_clean, report.render_text()
    assert report.exit_code == 0


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_rendered_corpus_round_trips_clean(name):
    compiled = run_compile(source=CORPUS[name]).compiled
    report = lint_text(compiled.program.render(), compiled.spec)
    assert report.is_clean, report.render_text()


@pytest.mark.parametrize(
    "build",
    [
        paper_example.build_dag,
        glucose.build_dag,
        enzyme.build_dag,
        extra.build_bradford_dag,
    ],
    ids=lambda fn: fn.__module__.rsplit(".", 1)[-1],
)
def test_hand_built_dags_lint_clean(build):
    compiled = run_compile(dag=build(), lint=True).compiled
    errors = [
        d
        for d in compiled.diagnostics
        if d.severity.value == "error"
    ]
    assert not errors, [str(d) for d in errors]
