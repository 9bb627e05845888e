"""Fluid-safety static analysis over AIS programs.

The paper's central premise is that fluids are **linear resources**: a
use is destructive, so a fluid's volume must cover every direct and
transitive use without violating the machine's max-capacity or
least-count limits.  The seed surfaced violations only late — at
DAGSolve/LP time or when the interpreter raised mid-run.  This package
finds them *statically*, directly on the compiled (or hand-written)
instruction stream:

* :mod:`repro.analysis.state` — the abstract domain: per-location
  ``EMPTY / HOLDS(fluids, volume-interval) / CONSUMED / UNKNOWN``;
* :mod:`repro.analysis.dataflow` — one forward abstract-interpretation
  pass recording location accesses and the value-flow (def-use) graph
  from producers to output/sense sinks: the one occupancy walk that the
  lint checks, the race detector and the certifier's schedule checks
  all read;
* :mod:`repro.analysis.checks` — the check registry (use-after-consume,
  double-fill, dead-fluid, static overflow/underflow, storage-less
  operand misuse, dry/wet register clash, operand sanity);
* :mod:`repro.analysis.lint` — the ``repro lint`` driver;
* :mod:`repro.analysis.report` — :class:`AnalysisReport`, the one report
  every analyzer returns (text/JSON rendering, severity-based exit
  codes), and :class:`CodeInfo`, the entry type of the stable code
  catalogues.

Library entry point::

    from repro.analysis import analyze
    diagnostics = analyze(compiled.program, compiled.spec)

The same pass runs as an opt-in pipeline stage
(``run_compile(..., lint=True)``) and behind ``repro lint file.ais``.

The sibling :mod:`repro.analysis.certify` package audits the compiler's
*output* instead — translation validation of the volume plan plus
schedule-interference analysis — behind ``repro certify`` and
``run_compile(..., certify=True)``.

The sibling :mod:`repro.analysis.sourceflow` package analyses the
*rolled* program instead of the unrolling: a CFG over the checked AST
and an interval fixpoint with widening, whose SRC-* verdicts hold for
every loop bound — behind ``repro lint --source``.

The sibling :mod:`repro.analysis.races` package is the *concurrency*
oracle: happens-before + lockset interference analysis over one program
or a merged multi-assay schedule, whose RACE-* verdicts hold for every
interleaving the barriers admit — behind ``repro lint --races`` and
``analyze_races([a, b], spec)``.
"""

from .certify import certify, certify_program
from .checks import AnalysisContext, Check, all_checks, analyze, check_codes, register
from .dataflow import Access, AccessKind, ForwardAnalysis, Place, ValueFlow
from .lint import lint_program, lint_text
from .races import analyze_races, race_text
from .report import AnalysisReport, CodeInfo
from .sourceflow import verify_program, verify_source
from .state import AbsContent, AbstractState, ContentKind, VolumeInterval

__all__ = [
    "analyze",
    "AnalysisContext",
    "Check",
    "register",
    "all_checks",
    "check_codes",
    "ForwardAnalysis",
    "Access",
    "AccessKind",
    "Place",
    "ValueFlow",
    "AnalysisReport",
    "CodeInfo",
    "lint_program",
    "lint_text",
    "analyze_races",
    "race_text",
    "verify_program",
    "verify_source",
    "AbsContent",
    "AbstractState",
    "ContentKind",
    "VolumeInterval",
]
