"""The certifier's catch on EnzymeN: where reservoir reuse double-books.

EnzymeN 2–8 on both machines under both planning objectives, compiled
with ``run_compile(..., certify=True)``.  The report goldens only cover
clean corpus listings; this grid pins the schedule findings the
certifier raises on listings the allocator gets wrong, so a change to
the occupancy semantics cannot silently drop (or invent) one.

* DAGSolve-planned cells pin the sorted ``(code, severity, instruction,
  operand)`` of every ``SCHED-*`` finding;
* LP-planned cells pin only the ``SCHED-*`` error count, since LP volumes
  (and so instruction counts) may move with the solver version;
* cells the register allocator cannot fit pin the exception class.
"""

from __future__ import annotations

import pytest

from repro.assays import generators
from repro.compiler.passes import run_compile
from repro.core.hierarchy import VolumeManager
from repro.machine.spec import MACHINES

ALLOCATION_ERROR = "AllocationError"

#: (instruction, operand) of each ``SCHED-DOUBLE-BOOK`` error.
_DOUBLE_BOOKS = {
    (5, "aquacore", "default"): [(683, "s3"), (887, "s6")],
    (6, "aquacore", "default"): [
        (57, "s12"), (61, "s15"), (65, "s16"), (69, "s17"), (73, "s1"),
        (77, "s10"), (81, "s13"), (85, "s24"), (89, "s5"), (93, "s12"),
        (97, "s15"), (101, "s9"), (392, "s4"), (684, "s2"), (976, "s9"),
        (1268, "s3"), (1560, "s4"),
    ],
    (7, "aquacore-xl", "default"): [
        (1329, "s15"), (1725, "s7"), (2121, "s30"), (2517, "s12"),
    ],
    (8, "aquacore-xl", "default"): [
        (127, "s5"), (131, "s25"), (135, "s17"), (139, "s39"), (143, "s12"),
        (147, "s6"), (151, "s45"), (155, "s31"), (159, "s15"), (163, "s42"),
        (167, "s28"), (171, "s46"), (175, "s16"), (179, "s47"), (183, "s2"),
        (698, "s48"), (1214, "s1"), (1730, "s49"), (2246, "s11"),
        (2762, "s50"), (3278, "s7"), (3794, "s26"),
    ],
    (8, "aquacore-xl", "waste"): [
        (665, "s30"), (1181, "s1"), (1697, "s31"), (2213, "s12"),
        (2729, "s18"), (3245, "s8"), (3761, "s33"),
    ],
}

_ALLOCATION_ERRORS = {
    (5, "aquacore", "waste"),
    (6, "aquacore", "waste"),
    (7, "aquacore", "default"),
    (7, "aquacore", "waste"),
    (8, "aquacore", "default"),
    (8, "aquacore", "waste"),
}

_LP_CELLS = {(4, "aquacore", "default"), (4, "aquacore-xl", "default")}

CELLS = [
    (n, machine, objective)
    for n in range(2, 9)
    for machine in ("aquacore", "aquacore-xl")
    for objective in ("default", "waste")
]


def _expected(cell):
    if cell in _ALLOCATION_ERRORS:
        return ALLOCATION_ERROR
    if cell in _LP_CELLS:
        return ("lp", 0)
    return (
        "dagsolve",
        [
            ("SCHED-DOUBLE-BOOK", "error", index, operand)
            for index, operand in sorted(_DOUBLE_BOOKS.get(cell, []))
        ],
    )


def _observed(n: int, machine: str, objective: str):
    spec = MACHINES[machine]
    try:
        compiled = run_compile(
            dag=generators.enzyme_n(n),
            spec=spec,
            manager=VolumeManager(spec.limits, objective=objective),
            certify=True,
        ).compiled
    except Exception as exc:  # the allocator's failure is the pinned fact
        return type(exc).__name__
    status = compiled.plan.status if compiled.plan is not None else "runtime"
    sched = sorted(
        (d.code, d.severity.value, d.instruction, d.operand)
        for d in compiled.diagnostics.items
        if d.code.startswith("SCHED-")
    )
    if status == "lp":
        return ("lp", sum(1 for finding in sched if finding[1] == "error"))
    return (status, sched)


@pytest.mark.parametrize("n,machine,objective", CELLS)
def test_double_book_grid(n, machine, objective):
    cell = (n, machine, objective)
    assert _observed(*cell) == _expected(cell)


def test_grid_reproduces_the_roadmap_table():
    """2, 17, 4, 22 and 7 double-books in the cells that emit a listing."""
    counts = [len(_DOUBLE_BOOKS[cell]) for cell in _DOUBLE_BOOKS]
    assert counts == [2, 17, 4, 22, 7]
    assert not _ALLOCATION_ERRORS & set(_DOUBLE_BOOKS)
