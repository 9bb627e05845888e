"""Plan-certification overhead on the paper benchmarks (Figures 12-14).

Translation validation is only attractive if re-checking a plan is much
cheaper than producing it.  This benchmark certifies the compiled
glucose, glycomics, and enzyme assays — re-deriving the IVol constraint
system and replaying the schedule from scratch each time — and compares
the verifier's wall time against full compilation.  The paper has no
verifier, so the "paper" column carries the compile time as the
baseline the certifier must undercut.
"""

import time

import _report
import pytest

from repro.analysis.certify import certify
from repro.assays import enzyme, glucose, glycomics
from repro.compiler.passes import run_compile

ASSAYS = {
    "glucose (fig 12)": glucose.SOURCE,
    "glycomics (fig 13)": glycomics.SOURCE,
    "enzyme (fig 14)": enzyme.SOURCE,
}


@pytest.mark.parametrize("name", sorted(ASSAYS))
def test_certify_is_cheaper_than_compiling(benchmark, name):
    source = ASSAYS[name]
    started = time.perf_counter()
    compiled = run_compile(source=source).compiled
    compile_seconds = time.perf_counter() - started

    report = benchmark(lambda: certify(compiled))
    assert report.counts["error"] == 0, report.render_text()

    if benchmark.stats is None:  # --benchmark-disable: time one run
        started = time.perf_counter()
        certify(compiled)
        certify_seconds = time.perf_counter() - started
    else:
        certify_seconds = benchmark.stats.stats.mean
    _report.record(
        "plan-certificate verifier overhead",
        name,
        f"{compile_seconds * 1e3:.1f} ms compile",
        f"{certify_seconds * 1e3:.1f} ms certify",
        "independent re-check of the volume plan + schedule",
    )
    # the re-check must not dominate the pipeline it validates
    assert certify_seconds < compile_seconds * 5
