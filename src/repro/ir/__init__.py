"""AquaCore Instruction Set (AIS) program form and compiler middle end.

* :mod:`repro.ir.instructions` — the instruction set of paper Table 1;
* :mod:`repro.ir.program` — program container and pretty printer;
* :mod:`repro.ir.builder` — assay AST -> volume DAG lowering;
* :mod:`repro.ir.regalloc` — reservoir (register) allocation;
* :mod:`repro.ir.parse` — textual AIS listings back into programs;
* :mod:`repro.ir.slicing` — backward slices over AIS programs (used by
  regeneration and by static replication).
"""

from .builder import build_dag_from_flat
from .parse import AISParseError, parse_ais
from .instructions import (
    Instruction,
    Opcode,
    Operand,
    concentrate,
    dry_add,
    dry_mov,
    dry_mul,
    dry_sub,
    incubate,
    input_,
    mix,
    move,
    move_abs,
    output,
    sense,
    separate,
)
from .program import AISProgram
from .regalloc import AllocationError, ReservoirAllocator, ReservoirAssignment
from .slicing import SliceIndex, backward_slice, def_use_chains

__all__ = [
    "build_dag_from_flat",
    "Opcode",
    "Operand",
    "Instruction",
    "AISProgram",
    "input_",
    "output",
    "move",
    "move_abs",
    "mix",
    "incubate",
    "concentrate",
    "separate",
    "sense",
    "dry_mov",
    "dry_add",
    "dry_sub",
    "dry_mul",
    "ReservoirAllocator",
    "ReservoirAssignment",
    "AllocationError",
    "AISParseError",
    "parse_ais",
    "SliceIndex",
    "backward_slice",
    "def_use_chains",
]
