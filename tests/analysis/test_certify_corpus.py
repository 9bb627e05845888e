"""The certified-corpus gate, and the verifier's independence.

Every assay the repo ships must certify with zero errors and zero
warnings — the same bar :mod:`tests.analysis.test_corpus` sets for the
lint pass.  A translation validator that flags the compiler's own output
is either finding a real miscompile or is wrong itself; both block.

The second half enforces the design rule that gives the certificate its
value: ``repro.analysis.certify`` must re-derive the IVol constraints
from scratch, so it may not import the solver stack it audits
(``core/dagsolve.py``, ``core/lp.py``, ``core/rounding.py``).  The check
is an AST scan over the package sources, because a runtime
``sys.modules`` probe cannot distinguish the verifier's own imports from
the compiler's.
"""

import ast
import pathlib

import pytest

from repro.analysis.certify import certify
from repro.assays import enzyme, extra, glucose, glycomics, paper_example
from repro.compiler.passes import run_compile
from repro.machine.spec import AQUACORE_SPEC
from repro.machine.topology import bus_topology, ring_topology

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

#: the paper's measured benchmarks (Figures 12-14).
PAPER_BENCHMARKS = ("glucose", "glycomics", "enzyme")


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_certifies_clean(name):
    compiled = run_compile(source=CORPUS[name]).compiled
    report = certify(compiled)
    assert report.is_clean, report.render_text()
    assert report.exit_code == 0
    assert report.extras["schedule_checked"]


@pytest.mark.parametrize("name", PAPER_BENCHMARKS)
def test_paper_benchmarks_certify_on_bus(name):
    """The paper's measured benchmarks (Figures 12-14) on the AquaCore
    bus — the smoke gate CI runs via ``tools/corpus.py --check certify``."""
    compiled = run_compile(source=CORPUS[name]).compiled
    report = certify(compiled, topology=bus_topology(compiled.spec))
    assert report.is_clean, report.render_text()


@pytest.mark.parametrize("name", PAPER_BENCHMARKS)
def test_paper_benchmarks_route_on_ring(name):
    """A ring layout stays *routable* (no errors), but generated code that
    assumed the bus legitimately warns about wet paths through occupied
    units — the layout-sensitivity signal, not a miscompile."""
    compiled = run_compile(source=CORPUS[name]).compiled
    report = certify(compiled, topology=ring_topology(compiled.spec))
    assert report.counts["error"] == 0, report.render_text()
    assert "SCHED-UNROUTABLE" not in report.codes()


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_pipeline_certify_stage_adds_no_errors(name):
    compiled = run_compile(source=CORPUS[name], certify=True).compiled
    certificate = [
        d
        for d in compiled.diagnostics
        if d.code.startswith(("PLAN-", "SCHED-"))
    ]
    assert certificate, "certify=True must contribute findings to the sink"
    assert all(d.severity.value == "note" for d in certificate), [
        str(d) for d in certificate
    ]


def test_static_corpus_checks_both_halves():
    compiled = run_compile(source=CORPUS["glucose"]).compiled
    report = certify(compiled)
    assert report.extras["plan_checked"] and report.extras["schedule_checked"]
    assert report.extras["metrics"]["delivered_nl"] > 0


def test_runtime_assay_defers_plan_half():
    compiled = run_compile(source=CORPUS["glycomics"]).compiled
    report = certify(compiled)
    assert not report.extras["plan_checked"]
    assert "PLAN-DEFERRED" in report.codes()
    assert report.is_clean, report.render_text()


# ---------------------------------------------------------------------------
# independence: the verifier must not import what it audits
# ---------------------------------------------------------------------------
FORBIDDEN_MODULES = ("dagsolve", "lp", "rounding")
CERTIFY_DIR = (
    pathlib.Path(__file__).resolve().parents[2]
    / "src"
    / "repro"
    / "analysis"
    / "certify"
)


def _imported_module_names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            # relative imports resolve inside repro; level>=3 reaches
            # repro.<module>, level<=2 stays inside repro.analysis
            yield module
            for alias in node.names:
                yield f"{module}.{alias.name}" if module else alias.name


@pytest.mark.parametrize(
    "source_file",
    sorted(CERTIFY_DIR.glob("*.py")),
    ids=lambda path: path.name,
)
def test_certify_never_imports_the_solver_stack(source_file):
    tree = ast.parse(source_file.read_text(encoding="utf-8"))
    imported = list(_imported_module_names(tree))
    for name in imported:
        parts = name.split(".")
        for forbidden in FORBIDDEN_MODULES:
            assert forbidden not in parts, (
                f"{source_file.name} imports {name!r}: the certifier must "
                f"re-derive constraints, not call into core/{forbidden}.py"
            )


def test_certify_package_exists_with_expected_modules():
    present = {path.name for path in CERTIFY_DIR.glob("*.py")}
    assert {
        "__init__.py",
        "codes.py",
        "constraints.py",
        "plan.py",
        "schedule.py",
        "report.py",
    } <= present


def test_certify_spec_override():
    compiled = run_compile(source=CORPUS["figure2"]).compiled
    report = certify(compiled, spec=AQUACORE_SPEC)
    assert report.machine == AQUACORE_SPEC.name
