"""Stable diagnostic codes emitted by the static race detector.

Every finding :func:`repro.analysis.races.analyze_races` produces carries
one of these codes; tests, CI, and ``repro lint --races --json`` consumers
match on them, so they are part of the tool's public contract.  The
catalogue below is the single source of truth; the table in
``docs/ANALYSIS.md`` is written by hand, and
``tests/analysis/test_code_docs.py`` checks that it lists every code
with its catalogue severity.

Severity semantics follow the certifier's convention: **errors** are
definite races (the classification holds on every interleaving the
happens-before graph admits), **notes** are possible races — findings
over bank-summarized, guard-widened, or merely schedule-sensitive
resources, where a scheduler still has the freedom to avoid the hazard.
"""

from __future__ import annotations

from ...compiler.diagnostics import Severity
from ..report import CodeInfo, catalogue

__all__ = ["RACE_CODES"]


RACE_CODES: dict[str, CodeInfo] = catalogue(
    CodeInfo(
        "RACE-WW",
        Severity.ERROR,
        "two may-happen-in-parallel instructions both mutate the same "
        "component (write/write interference)",
    ),
    CodeInfo(
        "RACE-RW",
        Severity.ERROR,
        "a may-happen-in-parallel pair reads and mutates the same "
        "component (read/write interference)",
    ),
    CodeInfo(
        "RACE-PORT",
        Severity.ERROR,
        "two may-happen-in-parallel inputs source different fluids from "
        "the same input port",
    ),
    CodeInfo(
        "RACE-ROUTE",
        Severity.ERROR,
        "two may-happen-in-parallel transfers contend for a shared "
        "channel segment, pump, or junction on the chosen topology",
    ),
    CodeInfo(
        "RACE-UNROUTABLE",
        Severity.ERROR,
        "a transfer has no channel route between its endpoints on the "
        "chosen topology",
    ),
    CodeInfo(
        "RACE-BANK",
        Severity.NOTE,
        "possible race: the merged programs' summed peak reservoir "
        "demand exceeds the machine's bank, so re-banking cannot be "
        "collision-free",
    ),
    CodeInfo(
        "RACE-GUARDED",
        Severity.NOTE,
        "possible race: a may-happen-in-parallel conflict involves a "
        "guard-widened (dynamically conditional) or unknown access",
    ),
    CodeInfo(
        "RACE-ORDER",
        Severity.NOTE,
        "schedule-sensitive pair: two conflicting accesses are ordered "
        "only by the incidental program order, not by fluid dataflow — "
        "a scheduler must preserve their order or re-bank",
    ),
)
