"""Lint driver: the ``repro lint`` entry point as a library.

Wraps :func:`repro.analysis.checks.analyze` with input handling (textual
AIS listings or compiled programs) and returns the shared
:class:`~repro.analysis.report.AnalysisReport`, whose rendering
(compiler-style text or JSON) follows the severity-based exit-code
policy:

* ``0`` — clean, or notes only;
* ``1`` — warnings;
* ``2`` — errors (or the input failed to parse/compile).
"""

from __future__ import annotations

from collections.abc import Sequence

from ..compiler.diagnostics import EXIT_CLEAN, EXIT_ERRORS, EXIT_WARNINGS
from ..ir.parse import parse_ais
from ..ir.program import AISProgram
from ..machine.spec import AQUACORE_SPEC, MachineSpec
from .checks import Check, analyze
from .report import AnalysisReport

__all__ = [
    "lint_program",
    "lint_text",
    "EXIT_CLEAN",
    "EXIT_WARNINGS",
    "EXIT_ERRORS",
]


def lint_program(
    program: AISProgram,
    spec: MachineSpec = AQUACORE_SPEC,
    *,
    checks: Sequence[Check] | None = None,
) -> AnalysisReport:
    """Lint an in-memory program."""
    return AnalysisReport(
        tool="lint",
        program=program.name,
        machine=spec.name,
        findings=analyze(program, spec, checks=checks),
    )


def lint_text(
    text: str,
    spec: MachineSpec = AQUACORE_SPEC,
    *,
    name: str = "program",
    checks: Sequence[Check] | None = None,
) -> AnalysisReport:
    """Parse an AIS listing and lint it.

    Raises:
        AISParseError: when the text is not a well-formed listing.
    """
    return lint_program(parse_ais(text, name=name), spec, checks=checks)
