"""The one analysis report: lint, certify, races and source verification.

Every analyzer entry point (``lint_program``/``lint_text``,
``certify``/``certify_program``, ``verify_source``/``verify_program``,
``analyze_races``/``race_text``) returns an :class:`AnalysisReport`.
What differs between the tools is passed in as data — the verdict
phrase, whether notes still earn it, a bracketed detail after the
summary line, and the tool's extra ``summary`` keys — so the report
itself never branches on which tool made it.

The JSON rendering is the stable v1 schema (documented in
``docs/ANALYSIS.md``)::

    {"version": 1, "tool": ..., "program": ..., "machine": ...,
     "diagnostics": [...], "summary": {"clean": ..., "errors": ...,
     "warnings": ..., "notes": ..., "exit_code": ..., <extras>}}

This module also defines :class:`CodeInfo`, the one entry type of the
stable ``PLAN-*``/``SCHED-*``/``RACE-*``/``SRC-*`` code catalogues.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..compiler.diagnostics import (
    Diagnostic,
    Severity,
    exit_code_for,
    severity_counts,
)

__all__ = [
    "REPORT_SCHEMA_VERSION",
    "AnalysisReport",
    "CodeInfo",
    "catalogue",
]

#: bumped only on breaking changes to the JSON payload shape.
REPORT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class CodeInfo:
    """One stable diagnostic code: default severity and a one-line gloss."""

    code: str
    severity: Severity
    title: str


def catalogue(*entries: CodeInfo) -> dict[str, CodeInfo]:
    """A code catalogue keyed by code, in declaration order."""
    return {entry.code: entry for entry in entries}


@dataclass(kw_only=True)
class AnalysisReport:
    """The outcome of one analyzer run over one program (or schedule)."""

    tool: str
    program: str
    machine: str
    findings: list[Diagnostic] = field(default_factory=list)
    #: tool-specific keys merged into the JSON ``summary`` block.
    extras: dict[str, object] = field(default_factory=dict)
    #: the summary-line phrase when the run passes (e.g. ``"certified"``).
    verdict: str = "clean"
    #: print the verdict whenever :attr:`is_clean` (notes allowed), not
    #: only when there are no findings at all.
    verdict_allows_notes: bool = False
    #: bracketed text closing the summary line; empty for none.
    detail: str = ""

    @property
    def counts(self) -> dict[str, int]:
        return severity_counts(self.findings)

    @property
    def is_clean(self) -> bool:
        """No warnings or errors (notes are informational)."""
        counts = self.counts
        return counts["error"] == 0 and counts["warning"] == 0

    @property
    def exit_code(self) -> int:
        """Shared severity table (repro.compiler.diagnostics)."""
        return exit_code_for(self.findings)

    def codes(self) -> set[str]:
        return {finding.code for finding in self.findings}

    # ------------------------------------------------------------------
    def render_text(self) -> str:
        counts = self.counts
        passed = self.is_clean if self.verdict_allows_notes else not self.findings
        verdict = (
            self.verdict
            if passed
            else f"{counts['error']} error(s), {counts['warning']} "
            f"warning(s), {counts['note']} note(s)"
        )
        detail = f" [{self.detail}]" if self.detail else ""
        lines = [str(finding) for finding in self.findings]
        lines.append(f"{self.program}: {verdict}{detail}")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, object]:
        counts = self.counts
        summary: dict[str, object] = {
            "clean": self.is_clean,
            "errors": counts["error"],
            "warnings": counts["warning"],
            "notes": counts["note"],
            "exit_code": self.exit_code,
            **self.extras,
        }
        return {
            "version": REPORT_SCHEMA_VERSION,
            "tool": self.tool,
            "program": self.program,
            "machine": self.machine,
            "diagnostics": [finding.to_dict() for finding in self.findings],
            "summary": summary,
        }

    def render_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)
