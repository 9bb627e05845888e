"""Source-level parametric volume verifier.

The paper (Section 3.5) — and the rest of this repo's analysis stack —
handles control flow by fully unrolling loops, so ``repro lint`` sees a
straight-line program whose size (and verdict) depends on the concrete
trip counts.  This package verifies the *rolled* program instead: a CFG
built straight from the checked AST, an interval abstract domain with
widening, and a worklist fixpoint whose invariants quantify over **all**
loop bounds.  Verification cost is O(program size), independent of N.

Public entry points:

* :func:`verify_program` — verify a parsed+checked AST;
* :func:`verify_source` — parse, check, and verify assay source text.

Both return the shared :class:`~repro.analysis.report.AnalysisReport`
(verdict ``verified for all loop bounds``) with the fixpoint statistics
under ``extras["fixpoint"]`` — the ``summary.fixpoint`` JSON block.
"""

from __future__ import annotations

from ...lang import ast
from ...lang.parser import parse
from ...lang.semantic import SymbolTable, analyze
from ...machine.spec import AQUACORE_SPEC, MachineSpec
from ..report import AnalysisReport
from .cfg import SourceCFG, build_cfg
from .checks import SRC_CODES, run_checks
from .domain import IT_CELL, DryVal, IntInterval, SourceState
from .engine import MAX_SWEEPS, WIDEN_DELAY, FactLog, run_fixpoint

__all__ = [
    "SRC_CODES",
    "IT_CELL",
    "WIDEN_DELAY",
    "MAX_SWEEPS",
    "IntInterval",
    "DryVal",
    "SourceState",
    "SourceCFG",
    "FactLog",
    "build_cfg",
    "run_fixpoint",
    "run_checks",
    "verify_program",
    "verify_source",
]


def verify_program(
    program: ast.Program,
    spec: MachineSpec = AQUACORE_SPEC,
    *,
    symbols: SymbolTable | None = None,
) -> AnalysisReport:
    """Verify a checked AST for all loop bounds."""
    if symbols is None:
        symbols = analyze(program)
    cfg = build_cfg(program, symbols)
    facts = run_fixpoint(cfg, spec)
    findings = run_checks(cfg, facts, spec)
    return AnalysisReport(
        tool="sourceflow",
        program=program.name,
        machine=spec.name,
        findings=findings,
        extras={
            "fixpoint": {
                "sweeps": facts.sweeps,
                "converged": facts.converged,
                "blocks": len(cfg.blocks),
                "reachable_blocks": facts.reachable_blocks,
                "loops": len(cfg.loops),
            }
        },
        verdict="verified for all loop bounds",
    )


def verify_source(
    text: str,
    spec: MachineSpec = AQUACORE_SPEC,
    *,
    name: str | None = None,
) -> AnalysisReport:
    """Parse, semantically check, and source-verify assay text.

    Raises:
        LexError/ParseError/SemanticError: when the text does not even
        reach the analysable stage (same front-end contract as compile).
    """
    program = parse(text)
    if name is not None:
        program = ast.Program(name=name, body=program.body, line=program.line)
    return verify_program(program, spec)
