"""Resource-access extraction: what each instruction touches, for races.

The lockset half of the race detector needs, per instruction, the set of
hardware resources it reads or mutates.  Rather than re-deriving transfer
semantics, this module projects the :class:`~repro.analysis.dataflow.
ForwardAnalysis` access stream (the same facts the lint checks consume)
down to flat :class:`ResourceAccess` records:

* every fluid-bearing location access becomes one record; destructive
  reads (drains, metered draws, unit-op feeds) count as **writes**, since
  they mutate the location's content — only ``sense`` is a pure read;
* input-port accesses carry the sourced **fluid label**
  (:func:`repro.ir.instructions.fluid_label`, the rule the certifier
  uses too), so the detector can tell a consistent shared port from a
  port clash;
* accesses under a dynamic guard, or to names the spec cannot classify,
  are **inexact** — conflicts involving them are *possible* races
  (``RACE-GUARDED``), never definite ones;
* reservoir names can be **namespaced** per program (``p0:s4``): a
  scheduler merging independently-compiled assays is free to re-bank
  storage, so same-numbered reservoirs in different programs are not
  real collisions unless the caller says storage is shared.

Transfers (``input``/``output``/``move``/``move-abs``) are additionally
recorded with their endpoints for the route-contention half.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...ir.instructions import Opcode, fluid_label
from ...ir.program import AISProgram
from ...machine.spec import MachineSpec
from ..dataflow import Access, AccessKind, ForwardAnalysis

__all__ = [
    "ResourceAccess",
    "Transfer",
    "ProgramAccesses",
    "extract_accesses",
]

#: transfer opcodes whose endpoints contend for channel routes.
TRANSFER_OPCODES = (Opcode.INPUT, Opcode.OUTPUT, Opcode.MOVE, Opcode.MOVE_ABS)


@dataclass(frozen=True)
class ResourceAccess:
    """One instruction's touch of one (possibly namespaced) resource."""

    program: int        # index into the merged program list
    index: int          # instruction index within that program
    resource: str       # canonical resource name, e.g. "p0:s4", "mixer1"
    write: bool         # mutates the resource's content
    exact: bool         # False = guarded or unclassifiable (possible only)
    kind: str           # spec component kind ("" when unknown)
    fluid: str | None = None   # input-port accesses: the sourced fluid

    @property
    def is_port(self) -> bool:
        return self.kind == "input-port"


@dataclass(frozen=True)
class Transfer:
    """One fluid transfer's endpoints (for route contention)."""

    program: int
    index: int
    src: str
    dst: str
    guarded: bool


@dataclass
class ProgramAccesses:
    """Everything the detector needs about one program."""

    name: str
    wet_count: int
    accesses: list[ResourceAccess]
    transfers: list[Transfer]
    #: distinct reservoirs the program parks fluid in (peak bank demand).
    reservoir_demand: int


def _is_write(kind: AccessKind) -> bool:
    """Only ``sense`` leaves the location untouched; drains, metered
    draws, and in-place unit operations all mutate content."""
    return kind is not AccessKind.READ_SENSE


def extract_accesses(
    analysis: ForwardAnalysis,
    *,
    program_index: int = 0,
    namespace: str = "",
) -> ProgramAccesses:
    """Project one program's dataflow facts (its forward walk, which the
    caller may share with other checks) to resource-access records.

    ``namespace`` (e.g. ``"p0:"``) is prepended to reservoir names only —
    functional units, their sub-wells, and ports are bound by opcodes and
    modes, so they stay globally shared.
    """
    program = analysis.program
    spec = analysis.spec
    records: list[ResourceAccess] = []
    reservoirs: set[str] = set()
    for access in analysis.accesses:
        record = _record(program, spec, access, program_index, namespace)
        if record is None:
            continue
        records.append(record)
        if record.kind == "reservoir":
            reservoirs.add(record.resource)
    transfers = [
        Transfer(
            program_index,
            index,
            str(instruction.src),
            str(instruction.dst),
            instruction.meta.get("guard") is not None,
        )
        for index, instruction in enumerate(program.instructions)
        if instruction.opcode in TRANSFER_OPCODES
    ]
    return ProgramAccesses(
        name=program.name,
        wet_count=len(program.wet_instructions()),
        accesses=records,
        transfers=transfers,
        reservoir_demand=len(reservoirs),
    )


def _record(
    program: AISProgram,
    spec: MachineSpec,
    access: Access,
    program_index: int,
    namespace: str,
) -> ResourceAccess | None:
    place = access.place
    kind = place.kind or ""
    if kind == "output-port":
        # off-chip sink: no shared state to contend for.
        return None
    fluid: str | None = None
    if kind == "input-port":
        fluid = fluid_label(program.instructions[access.index])
    resource = place.text
    if kind == "reservoir" and namespace:
        resource = f"{namespace}{resource}"
    return ResourceAccess(
        program=program_index,
        index=access.index,
        resource=resource,
        write=_is_write(access.kind),
        exact=not access.guarded and place.kind is not None,
        kind=kind,
        fluid=fluid,
    )
