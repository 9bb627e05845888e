"""Stable diagnostic codes emitted by the plan-certificate verifier.

Every finding the certifier produces carries one of these codes; tests,
CI, and ``repro certify --json`` consumers match on them, so they are
part of the tool's public contract.  ``PLAN-*`` codes come from the plan
half (translation validation of the volume assignment against the
re-derived IVol constraint system), ``SCHED-*`` codes from the schedule
half (hardware-interference analysis over the emitted instruction
stream).  The catalogue below is the single source of truth; the table
in ``docs/ANALYSIS.md`` is written by hand, and
``tests/analysis/test_code_docs.py`` checks that it lists every code
with its catalogue severity.
"""

from __future__ import annotations

from ...compiler.diagnostics import Severity
from ..report import CodeInfo, catalogue

__all__ = ["PLAN_CODES", "SCHED_CODES", "ALL_CODES"]


PLAN_CODES: dict[str, CodeInfo] = catalogue(
    CodeInfo(
        "PLAN-COVERAGE",
        Severity.ERROR,
        "the assignment is missing (or has a negative) volume for a DAG "
        "node or edge",
    ),
    CodeInfo(
        "PLAN-FLOW",
        Severity.ERROR,
        "flow conservation violated: a node's input, production, or use "
        "totals disagree with its edge volumes",
    ),
    CodeInfo(
        "PLAN-QUANT",
        Severity.ERROR,
        "a dispensed edge volume is not an integer multiple of the least "
        "count (not expressible in IVol)",
    ),
    CodeInfo(
        "PLAN-UNDERFLOW",
        Severity.ERROR,
        "a metered edge volume is below the least count",
    ),
    CodeInfo(
        "PLAN-OVERFLOW",
        Severity.ERROR,
        "a node's held volume exceeds its capacity",
    ),
    CodeInfo(
        "PLAN-MIN-VOLUME",
        Severity.ERROR,
        "a functional-unit minimum-load constraint is violated",
    ),
    CodeInfo(
        "PLAN-BUDGET",
        Severity.ERROR,
        "draws from a constrained input exceed its measured available "
        "volume",
    ),
    CodeInfo(
        "PLAN-RATIO",
        Severity.ERROR,
        "a mix input deviates from its declared share by more than the "
        "rounding tolerance",
    ),
    CodeInfo(
        "PLAN-EXCESS",
        Severity.ERROR,
        "an excess edge's volume disagrees with its producer's surplus, "
        "or a NOEXCESS fluid produces excess",
    ),
    CodeInfo(
        "PLAN-SLICE",
        Severity.ERROR,
        "a replication or cascade slice is inconsistent with its origin "
        "(recipe mismatch or broken stage chain)",
    ),
    CodeInfo(
        "PLAN-DEFERRED",
        Severity.NOTE,
        "volumes are resolved at run time; plan certification limited to "
        "the schedule half",
    ),
    CodeInfo(
        "PLAN-WASTE",
        Severity.NOTE,
        "waste/optimality report: achieved output volume vs. the "
        "unrounded equal-output bound",
    ),
)


SCHED_CODES: dict[str, CodeInfo] = catalogue(
    CodeInfo(
        "SCHED-DOUBLE-BOOK",
        Severity.ERROR,
        "a transfer or operation deposits into a component that still "
        "holds another live fluid",
    ),
    CodeInfo(
        "SCHED-DRY-PUMP",
        Severity.ERROR,
        "a transfer or operation reads a component that holds nothing "
        "(dry transport hazard)",
    ),
    CodeInfo(
        "SCHED-PORT-CLASH",
        Severity.ERROR,
        "one input port sources two different fluids",
    ),
    CodeInfo(
        "SCHED-UNROUTABLE",
        Severity.ERROR,
        "no channel route exists between a transfer's endpoints on the "
        "chosen topology",
    ),
    CodeInfo(
        "SCHED-ROUTE-THROUGH",
        Severity.WARNING,
        "a transfer's route passes through a component that currently "
        "holds a live fluid (wet transport hazard)",
    ),
    CodeInfo(
        "SCHED-ROUTE-OVERLAP",
        Severity.ERROR,
        "two transfers scheduled to overlap in time contend for a shared "
        "channel segment, pump, or junction",
    ),
)


ALL_CODES: dict[str, CodeInfo] = {**PLAN_CODES, **SCHED_CODES}
