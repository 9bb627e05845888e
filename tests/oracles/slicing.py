"""Reference backward slicing: every query rescans the program.

These are the straightforward slicing functions :class:`repro.ir.slicing.
SliceIndex` replaced, kept verbatim: ``def_use_chains`` rebuilds the
chains over the whole program, ``backward_slice`` rebuilds them on every
call, and ``slice_for_location`` replays the prefix before ``before`` to
find the location's last writer.  The property suite asserts the index
answers every query the same way.  The per-opcode location effects
(``_reads_writes``) are shared with production: they are the definition
being indexed, not an algorithm over it.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.ir.instructions import Instruction
from repro.ir.slicing import Location, _reads_writes

__all__ = ["def_use_chains", "backward_slice", "slice_for_location"]


def def_use_chains(program: Sequence[Instruction]) -> list[list[int]]:
    """For each instruction, the indices of the instructions that produced
    the fluid it reads (its direct dependences)."""
    last_writer: dict[Location, int] = {}
    chains: list[list[int]] = []
    for index, instruction in enumerate(program):
        reads, writes, kills = _reads_writes(instruction)
        deps = sorted(
            {
                last_writer[location]
                for location in reads
                if location in last_writer
            }
        )
        chains.append(deps)
        for location in kills:
            last_writer.pop(location, None)
        for location in writes:
            last_writer[location] = index
    return chains


def backward_slice(
    program: Sequence[Instruction], index: int
) -> list[int]:
    """Indices of the transitive producers of instruction ``index``
    (inclusive), in program order — the code to re-execute to regenerate
    that instruction's inputs."""
    if not (0 <= index < len(program)):
        raise IndexError(index)
    chains = def_use_chains(program)
    needed: set[int] = set()
    stack = [index]
    while stack:
        current = stack.pop()
        if current in needed:
            continue
        needed.add(current)
        stack.extend(chains[current])
    return sorted(needed)


def slice_for_location(
    program: Sequence[Instruction], location: Location, before: int
) -> list[int]:
    """Backward slice that regenerates the contents of ``location`` as they
    stood just before instruction ``before``."""
    last_writer: dict[Location, int] = {}
    for index in range(before):
        __, writes, kills = _reads_writes(program[index])
        for written in kills:
            last_writer.pop(written, None)
        for written in writes:
            last_writer[written] = index
    if location not in last_writer:
        return []
    return backward_slice(program, last_writer[location])
