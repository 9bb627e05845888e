"""Backward slicing over straight-line AIS programs.

Regeneration (paper Section 1, quoting Biostream) re-executes "the code
fragments that produce the fluid — the backward slice"; static replication
(Section 3.4.2) replicates part of the same slice.  For straight-line wet
code the slice is a plain reaching-definitions closure over *locations*
(reservoirs, ports, functional units and their sub-ports).

The location effects of each opcode:

===========  =======================================  =====================
opcode       reads                                    writes
===========  =======================================  =====================
input        src port                                 dst
output       src                                      (src drained)
move         src                                      dst (src maybe drained)
move-abs     src                                      dst
mix          unit                                     unit
incubate     unit                                     unit
concentrate  unit                                     unit
separate     unit, unit.matrix, unit.pusher           unit.out1, unit.out2
sense        unit                                     (reading only)
dry-*        registers                                registers (ignored)
===========  =======================================  =====================

A ``move`` without a relative volume drains its source; a metered move
leaves fluid behind, so the source's previous definition stays live — the
def-use chains model both.

:class:`SliceIndex` computes these facts once per program; regeneration
builds one per run and answers every slice query from it.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence

from .instructions import Instruction, Opcode, Operand

__all__ = [
    "SliceIndex",
    "def_use_chains",
    "backward_slice",
    "slice_for_location",
]

Location = str


def _loc(operand: Operand) -> Location:
    return str(operand)


def _reads_writes(
    instruction: Instruction,
) -> tuple[list[Location], list[Location], list[Location]]:
    """(reads, writes, kills) of one instruction.

    ``kills`` are locations fully drained (their previous definition dies);
    partially-drained sources are read but not killed.
    """
    op = instruction.opcode
    if op is Opcode.INPUT:
        # depositing accumulates: the destination's previous contents are
        # part of the new state, so the old definition is read, not killed.
        return (
            [_loc(instruction.src), _loc(instruction.dst)],
            [_loc(instruction.dst)],
            [],
        )
    if op is Opcode.OUTPUT:
        src = _loc(instruction.src)
        return [src], [], [src]
    if op in (Opcode.MOVE, Opcode.MOVE_ABS):
        src = _loc(instruction.src)
        dst = _loc(instruction.dst)
        drains = (
            op is Opcode.MOVE
            and instruction.rel_volume is None
            and instruction.abs_volume is None
        )
        return [src, dst], [dst], [src] if drains else []
    if op in (Opcode.MIX, Opcode.INCUBATE, Opcode.CONCENTRATE):
        unit = _loc(instruction.dst)
        return [unit], [unit], []
    if op is Opcode.SEPARATE:
        unit = _loc(instruction.dst)
        base = instruction.dst.base
        return (
            [unit, f"{base}.matrix", f"{base}.pusher"],
            [f"{base}.out1", f"{base}.out2"],
            [unit, f"{base}.pusher"],
        )
    if op is Opcode.SENSE:
        return [_loc(instruction.dst)], [], []
    return [], [], []  # dry ops do not touch fluid state


class SliceIndex:
    """The def-use facts of one straight-line program, built in one pass.

    One scan of each instruction's ``(reads, writes, kills)`` yields the
    def-use chains and, for each location, the program-order list of the
    instructions that write or kill it, so every slice query walks only
    the chains.  The index describes the program as it was when built; it
    is stale once an instruction changes.
    """

    def __init__(self, program: Sequence[Instruction]) -> None:
        self.chains: list[list[int]] = []
        #: location -> its (index, written) events in program order; a
        #: kill (written False) precedes a write at the same index.
        self._events: dict[Location, list[tuple[int, bool]]] = {}
        last_writer: dict[Location, int] = {}
        for index, instruction in enumerate(program):
            reads, writes, kills = _reads_writes(instruction)
            self.chains.append(
                sorted({last_writer[loc] for loc in reads if loc in last_writer})
            )
            for location in kills:
                last_writer.pop(location, None)
                self._events.setdefault(location, []).append((index, False))
            for location in writes:
                last_writer[location] = index
                self._events.setdefault(location, []).append((index, True))

    def backward_slice(self, index: int) -> list[int]:
        """Indices of the transitive producers of instruction ``index``
        (inclusive), in program order — the code to re-execute to
        regenerate that instruction's inputs."""
        if not (0 <= index < len(self.chains)):
            raise IndexError(index)
        needed: set[int] = set()
        stack = [index]
        while stack:
            current = stack.pop()
            if current not in needed:
                needed.add(current)
                stack.extend(self.chains[current])
        return sorted(needed)

    def slice_for_location(self, location: Location, before: int) -> list[int]:
        """Backward slice that regenerates the contents of ``location`` as
        they stood just before instruction ``before``."""
        events = self._events.get(location, [])
        last = bisect_left(events, (before,))
        if last == 0 or not events[last - 1][1]:
            return []
        return self.backward_slice(events[last - 1][0])


def def_use_chains(program: Sequence[Instruction]) -> list[list[int]]:
    """For each instruction, the indices of the instructions that produced
    the fluid it reads (its direct dependences)."""
    return SliceIndex(program).chains


def backward_slice(
    program: Sequence[Instruction], index: int
) -> list[int]:
    """:meth:`SliceIndex.backward_slice` over ``program``."""
    return SliceIndex(program).backward_slice(index)


def slice_for_location(
    program: Sequence[Instruction], location: Location, before: int
) -> list[int]:
    """:meth:`SliceIndex.slice_for_location` over ``program``."""
    return SliceIndex(program).slice_for_location(location, before)
