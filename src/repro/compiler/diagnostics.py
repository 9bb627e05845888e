"""Structured compiler diagnostics.

The volume-management hierarchy can succeed while still leaving residual
risk (a plan that needs run-time regeneration, a transform that grew the
DAG, a constrained input whose Vnorm is tiny — the paper calls out
glycomics' X2 = 1/204 as "a concern").  These surface as warnings rather
than errors so callers can decide.

The same :class:`Diagnostic`/:class:`DiagnosticSink` pair is the output
format of the fluid-safety static analyzer (:mod:`repro.analysis`), which
adds instruction/operand provenance; ``to_dict`` is the JSON shape
``repro lint --json`` emits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, unique
from collections.abc import Iterable, Iterator

__all__ = [
    "Severity",
    "Diagnostic",
    "DiagnosticSink",
    "EXIT_CLEAN",
    "EXIT_WARNINGS",
    "EXIT_ERRORS",
    "EXIT_FATAL",
    "SEVERITY_EXIT_CODES",
    "severity_counts",
    "exit_code_for",
]

# ---------------------------------------------------------------------------
# the one severity / exit-code table
# ---------------------------------------------------------------------------
# Shared by ``repro lint``, ``repro certify``, the compiler's diagnostic
# sink, and the pass-manager events; pinned by
# tests/compiler/test_severity_table.py.  The ordering NOTE < WARNING <
# ERROR is :attr:`Severity.rank`.
EXIT_CLEAN = 0      # no findings, or notes only
EXIT_WARNINGS = 1   # warnings, no errors
EXIT_ERRORS = 2     # at least one error
#: unusable input (parse/compile failure) — deliberately the same value
#: as EXIT_ERRORS: callers gate on "nonzero means not clean".
EXIT_FATAL = 2


@unique
class Severity(Enum):
    NOTE = "note"
    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        """Total order: NOTE < WARNING < ERROR."""
        return {"note": 0, "warning": 1, "error": 2}[self.value]


@dataclass(frozen=True)
class Diagnostic:
    severity: Severity
    code: str       # short machine-readable tag, e.g. "underflow-risk"
    message: str
    node: str | None = None
    #: 0-based instruction index, for program-level (analyzer) findings.
    instruction: int | None = None
    #: the operand the finding is about (e.g. "s3", "separator1.out1").
    operand: str | None = None

    def __str__(self) -> str:
        where = ""
        if self.node:
            where = f" [{self.node}]"
        elif self.instruction is not None:
            where = f" [instr {self.instruction}]"
        return f"{self.severity.value}: {self.code}: {self.message}{where}"

    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable form (``repro lint --json``)."""
        payload: dict[str, object] = {
            "severity": self.severity.value,
            "code": self.code,
            "message": self.message,
        }
        if self.node is not None:
            payload["node"] = self.node
        if self.instruction is not None:
            payload["instruction"] = self.instruction
        if self.operand is not None:
            payload["operand"] = self.operand
        return payload


@dataclass
class DiagnosticSink:
    items: list[Diagnostic] = field(default_factory=list)

    def note(self, code: str, message: str, node: str | None = None) -> None:
        self.items.append(Diagnostic(Severity.NOTE, code, message, node))

    def warning(self, code: str, message: str, node: str | None = None) -> None:
        self.items.append(Diagnostic(Severity.WARNING, code, message, node))

    def error(self, code: str, message: str, node: str | None = None) -> None:
        self.items.append(Diagnostic(Severity.ERROR, code, message, node))

    def extend(
        self, diagnostics: "DiagnosticSink" | Iterable[Diagnostic]
    ) -> None:
        """Merge another sink (or any iterable of diagnostics) into this one."""
        self.items.extend(diagnostics)

    def filter(self, severity: Severity) -> list[Diagnostic]:
        """All diagnostics of exactly the given severity."""
        return [d for d in self.items if d.severity is severity]

    @property
    def max_severity(self) -> Severity | None:
        """The most severe level present, or ``None`` when empty."""
        if not self.items:
            return None
        return max((d.severity for d in self.items), key=lambda s: s.rank)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.items)

    def render(self) -> str:
        return "\n".join(str(d) for d in self.items)


def severity_counts(diagnostics: Iterable[Diagnostic]) -> dict[str, int]:
    """Tally diagnostics per severity level."""
    counts = {"error": 0, "warning": 0, "note": 0}
    for diagnostic in diagnostics:
        counts[diagnostic.severity.value] += 1
    return counts


#: severity of the worst finding -> process exit code (None = no findings).
SEVERITY_EXIT_CODES: dict[Severity | None, int] = {
    None: EXIT_CLEAN,
    Severity.NOTE: EXIT_CLEAN,
    Severity.WARNING: EXIT_WARNINGS,
    Severity.ERROR: EXIT_ERRORS,
}


def exit_code_for(diagnostics: Iterable[Diagnostic]) -> int:
    """The severity-based exit-code policy shared by lint, certify, and
    the pass-manager drivers: 0 clean/notes, 1 warnings, 2 errors."""
    worst: Severity | None = None
    for diagnostic in diagnostics:
        if worst is None or diagnostic.severity.rank > worst.rank:
            worst = diagnostic.severity
    return SEVERITY_EXIT_CODES[worst]
