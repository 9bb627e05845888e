"""The AquaCore Instruction Set (paper Table 1).

Wet instructions (executed by the fluidic datapath)::

    input  id2, id1          load from input port id1 into id2
    output id2, id1          send id1's contents to output port id2
    move   id1, id2, <rel>   move (relative volume) from id2 into id1
    move-abs id1, id2, vol   move an absolute volume
    mix    id1, time         homogenise the mixer
    incubate id, temp, time  heat
    concentrate id, temp, time
    separate.{CE,SIZE,AF,LC} id1, args..., time
    sense.{OD,FL} id1, senseval

Dry instructions (electronic control)::

    dry-mov r, x   dry-add r, x   dry-sub r, x   dry-mul r, x

Operand ids name reservoirs (``s1``), ports (``ip1``/``op1``), functional
units (``mixer1``) and functional-unit sub-ports (``separator2.out1``,
``separator1.matrix``) — the *storage-less operand* feature: one
instruction can feed another without a reservoir in between.

``move`` volumes are **relative** (translated to absolute volumes by the
volume-management plan at run time, Section 2.1); instructions carry a
provenance ``edge`` linking them to the DAG edge whose assigned volume they
dispense.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum, unique
from fractions import Fraction

from ..core.limits import Number, as_fraction

__all__ = [
    "Opcode",
    "Operand",
    "Instruction",
    "fluid_label",
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
]


@unique
class Opcode(Enum):
    INPUT = "input"
    OUTPUT = "output"
    MOVE = "move"
    MOVE_ABS = "move-abs"
    MIX = "mix"
    INCUBATE = "incubate"
    CONCENTRATE = "concentrate"
    SEPARATE = "separate"
    SENSE = "sense"
    DRY_MOV = "dry-mov"
    DRY_ADD = "dry-add"
    DRY_SUB = "dry-sub"
    DRY_MUL = "dry-mul"

    @property
    def is_wet(self) -> bool:
        return not self.value.startswith("dry-")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Opcode.{self.name}"


SEPARATE_MODES = ("CE", "SIZE", "AF", "LC")
SENSE_MODES = ("OD", "FL")


@dataclass(frozen=True)
class Operand:
    """A location: component id plus optional sub-port."""

    base: str
    sub: str | None = None

    @classmethod
    def parse(cls, text: str) -> "Operand":
        base, dot, sub = text.partition(".")
        if not base:
            raise ValueError(f"empty operand in {text!r}")
        return cls(base, sub if dot else None)

    def __str__(self) -> str:
        return self.base if self.sub is None else f"{self.base}.{self.sub}"


def _operand(value: str | Operand) -> Operand:
    return value if isinstance(value, Operand) else Operand.parse(value)


@dataclass
class Instruction:
    """One AIS instruction.

    Only the fields relevant to the opcode are set; :meth:`validate` checks
    the combination.  ``edge`` ties a ``move``/``input`` to the DAG edge (or
    node, for inputs) whose planned volume it dispenses; ``comment`` carries
    the fluid name the paper prints after ``;`` in its listings.
    """

    opcode: Opcode
    dst: Operand | None = None
    src: Operand | None = None
    rel_volume: Fraction | None = None
    abs_volume: Fraction | None = None
    temperature: Fraction | None = None
    duration: Fraction | None = None
    mode: str | None = None       # separate/sense flavour
    result: str | None = None     # sense destination variable
    reg: str | None = None        # dry ops: target register
    value: int | str | None = None  # dry ops: immediate or register
    comment: str | None = None
    edge: tuple[str, str] | None = None
    meta: dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def validate(self) -> None:
        op = self.opcode
        if op in (Opcode.INPUT, Opcode.OUTPUT):
            if self.dst is None or self.src is None:
                raise ValueError(f"{op.value} needs dst and src")
        elif op in (Opcode.MOVE, Opcode.MOVE_ABS):
            if self.dst is None or self.src is None:
                raise ValueError(f"{op.value} needs dst and src")
            if op is Opcode.MOVE_ABS and self.abs_volume is None:
                raise ValueError("move-abs needs an absolute volume")
        elif op is Opcode.MIX:
            if self.dst is None or self.duration is None:
                raise ValueError("mix needs a unit and a duration")
        elif op in (Opcode.INCUBATE, Opcode.CONCENTRATE):
            if self.dst is None or self.temperature is None or self.duration is None:
                raise ValueError(f"{op.value} needs unit, temperature, time")
        elif op is Opcode.SEPARATE:
            if self.dst is None or self.mode not in SEPARATE_MODES:
                raise ValueError(
                    f"separate needs a unit and a mode in {SEPARATE_MODES}"
                )
            if self.duration is None:
                raise ValueError("separate needs a duration")
        elif op is Opcode.SENSE:
            if self.dst is None or self.mode not in SENSE_MODES:
                raise ValueError(f"sense needs a unit and a mode in {SENSE_MODES}")
            if self.result is None:
                raise ValueError("sense needs a result variable")
        else:  # dry ops
            if self.reg is None or self.value is None:
                raise ValueError(f"{op.value} needs a register and a value")

    @property
    def is_wet(self) -> bool:
        return self.opcode.is_wet

    def with_volume(self, volume: Number) -> "Instruction":
        """Copy with a resolved absolute volume (plan application)."""
        return replace(
            self,
            abs_volume=as_fraction(volume),
            meta=dict(self.meta),
        )

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Paper-style text form (Figures 9(b)-11(b))."""
        op = self.opcode
        if op is Opcode.INPUT:
            body = f"input {self.dst}, {self.src}"
        elif op is Opcode.OUTPUT:
            body = f"output {self.dst}, {self.src}"
        elif op is Opcode.MOVE:
            if self.rel_volume is not None:
                rel = (
                    str(self.rel_volume)
                    if self.rel_volume.denominator != 1
                    else str(self.rel_volume.numerator)
                )
                body = f"move {self.dst}, {self.src}, {rel}"
            else:
                body = f"move {self.dst}, {self.src}"
        elif op is Opcode.MOVE_ABS:
            body = f"move-abs {self.dst}, {self.src}, {float(self.abs_volume):g}"
        elif op is Opcode.MIX:
            body = f"mix {self.dst}, {_num(self.duration)}"
        elif op in (Opcode.INCUBATE, Opcode.CONCENTRATE):
            body = (
                f"{op.value} {self.dst}, {_num(self.temperature)}, "
                f"{_num(self.duration)}"
            )
        elif op is Opcode.SEPARATE:
            body = f"separate.{self.mode} {self.dst}, {_num(self.duration)}"
        elif op is Opcode.SENSE:
            body = f"sense.{self.mode} {self.dst}, {self.result}"
        else:
            body = f"{op.value} {self.reg}, {self.value}"
        if self.comment:
            body = f"{body} ;{self.comment}"
        return body

    def __str__(self) -> str:
        return self.render()


def fluid_label(instruction: Instruction) -> str:
    """The fluid an instruction handles: the first codegen ``meta``
    provenance key present (``node``, ``dst_node``, ``aux``, ``park``,
    ``sense_of``), then the DAG edge's source, then the comment.

    The schedule certifier and the race detector both compare fluids by
    this label, so ``SCHED-PORT-CLASH`` and ``RACE-PORT`` agree on when
    two loads from one input port source different fluids.
    """
    for key in ("node", "dst_node", "aux", "park", "sense_of"):
        value = instruction.meta.get(key)
        if value is not None:
            return str(value)
    if instruction.edge is not None:
        return str(instruction.edge[0])
    return instruction.comment or "fluid"


def _num(value: Fraction | None) -> str:
    if value is None:
        return "?"
    return str(value.numerator) if value.denominator == 1 else str(value)


# ----------------------------------------------------------------------
# factory helpers
# ----------------------------------------------------------------------
def input_(dst: str | Operand, port: str | Operand, **kwargs) -> Instruction:
    instr = Instruction(Opcode.INPUT, dst=_operand(dst), src=_operand(port), **kwargs)
    instr.validate()
    return instr


def output(port: str | Operand, src: str | Operand, **kwargs) -> Instruction:
    instr = Instruction(Opcode.OUTPUT, dst=_operand(port), src=_operand(src), **kwargs)
    instr.validate()
    return instr


def move(
    dst: str | Operand,
    src: str | Operand,
    rel_volume: Number | None = None,
    **kwargs,
) -> Instruction:
    instr = Instruction(
        Opcode.MOVE,
        dst=_operand(dst),
        src=_operand(src),
        rel_volume=None if rel_volume is None else as_fraction(rel_volume),
        **kwargs,
    )
    instr.validate()
    return instr


def move_abs(
    dst: str | Operand,
    src: str | Operand,
    volume: Number,
    **kwargs,
) -> Instruction:
    instr = Instruction(
        Opcode.MOVE_ABS,
        dst=_operand(dst),
        src=_operand(src),
        abs_volume=as_fraction(volume),
        **kwargs,
    )
    instr.validate()
    return instr


def mix(unit: str | Operand, duration: Number, **kwargs) -> Instruction:
    instr = Instruction(
        Opcode.MIX, dst=_operand(unit), duration=as_fraction(duration), **kwargs
    )
    instr.validate()
    return instr


def incubate(
    unit: str | Operand, temperature: Number, duration: Number, **kwargs
) -> Instruction:
    instr = Instruction(
        Opcode.INCUBATE,
        dst=_operand(unit),
        temperature=as_fraction(temperature),
        duration=as_fraction(duration),
        **kwargs,
    )
    instr.validate()
    return instr


def concentrate(
    unit: str | Operand, temperature: Number, duration: Number, **kwargs
) -> Instruction:
    instr = Instruction(
        Opcode.CONCENTRATE,
        dst=_operand(unit),
        temperature=as_fraction(temperature),
        duration=as_fraction(duration),
        **kwargs,
    )
    instr.validate()
    return instr


def separate(
    unit: str | Operand, mode: str, duration: Number, **kwargs
) -> Instruction:
    instr = Instruction(
        Opcode.SEPARATE,
        dst=_operand(unit),
        mode=mode,
        duration=as_fraction(duration),
        **kwargs,
    )
    instr.validate()
    return instr


def sense(
    unit: str | Operand, mode: str, result: str, **kwargs
) -> Instruction:
    instr = Instruction(
        Opcode.SENSE, dst=_operand(unit), mode=mode, result=result, **kwargs
    )
    instr.validate()
    return instr


def _dry(opcode: Opcode, reg: str, value: int | str) -> Instruction:
    instr = Instruction(opcode, reg=reg, value=value)
    instr.validate()
    return instr


def dry_mov(reg: str, value: int | str) -> Instruction:
    return _dry(Opcode.DRY_MOV, reg, value)


def dry_add(reg: str, value: int | str) -> Instruction:
    return _dry(Opcode.DRY_ADD, reg, value)


def dry_sub(reg: str, value: int | str) -> Instruction:
    return _dry(Opcode.DRY_SUB, reg, value)


def dry_mul(reg: str, value: int | str) -> Instruction:
    return _dry(Opcode.DRY_MUL, reg, value)
