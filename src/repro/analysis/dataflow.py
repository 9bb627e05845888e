"""Forward dataflow over straight-line AIS programs: the one occupancy walk.

:class:`ForwardAnalysis` interprets a program once over the abstract
domain of :mod:`repro.analysis.state`, recording

* a flat list of :class:`Access` events — every read/write of a fluid
  location, tagged with the abstract content *at access time* and the
  moved volume interval;
* a **value-flow graph** over instruction indices: ``input`` / ``mix`` /
  ``separate`` instructions *produce* fluid values, transport carries the
  producing indices along inside :class:`AbsContent.defs`, and ``output``
  / ``sense`` instructions are sinks (outputs are split into *product*
  and *waste* sinks — codegen's ``discard …`` outputs are waste).

Every client reads these facts and none re-implements transfer
semantics: the lint checks (:mod:`repro.analysis.checks`), the race
detector (:mod:`repro.analysis.races`) and the certifier's schedule
checks (:mod:`repro.analysis.certify.schedule`).  The occupancy rules
they share are tabulated in ``docs/ANALYSIS.md``:

* a **bare** ``move`` (no volume, no DAG ``edge``) drains its source; a
  metered one — explicit volume, or an ``edge`` the executor resolves
  against the volume plan — leaves the remainder in place;
* ``output`` drains what a location holds, and is a no-op on an empty
  one;
* ``separate`` spends the feed, matrix and pusher and fills both outlet
  wells (``out1`` effluent, ``out2`` waste);
* a deposit into a sensor replaces the previous sample (flow cell);
* ``input``, ``mix``/``incubate``/``concentrate`` and ``separate`` leave
  a finished *product*; a move into a unit only accumulates ingredients;
* guarded instructions (dynamic-IF branches, Section 3.5) are weak:
  every location they touch ends in the join of its old and new
  contents, and their accesses are marked so checks do not report
  definite violations for code the executor may skip;
* ``initial`` seeds contents the program starts with (constrained inputs
  a previous partition parked in reservoirs).

Volumes — moved intervals, held contents, location capacities — are
counted in **least counts**, the machine's metering quantum (IVol,
paper §3.2): a metered draw moves at least ``1``, and a 100 nl reservoir
on a 0.1 nl machine holds ``1000``.  They stay Python ints unless a
listing names a volume finer than the least count.
:meth:`ForwardAnalysis.nl` converts back for messages.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass
from enum import Enum, unique
from fractions import Fraction
from typing import NamedTuple

from ..ir.instructions import Instruction, Opcode, Operand
from ..ir.program import AISProgram
from ..machine.spec import MachineSpec
from .state import (
    AbsContent,
    AbstractState,
    ContentKind,
    Volume,
    VolumeInterval,
)

__all__ = [
    "Place",
    "AccessKind",
    "Access",
    "ValueFlow",
    "ForwardAnalysis",
]

#: separator wells addressable as ``unit.<sub>``.
SEPARATOR_SUBPORTS = ("matrix", "pusher", "out1", "out2")


class Place(NamedTuple):
    """A classified operand: where it points on the machine."""

    text: str                 # canonical operand text, e.g. "separator1.out1"
    base: str
    sub: str | None
    kind: str | None       # spec.component_kind(base); None = unknown name
    capacity: Volume | None  # in least counts

    @property
    def is_subport(self) -> bool:
        return self.sub is not None

    @property
    def is_valid(self) -> bool:
        """Addresses a real fluid location (or port) on the machine."""
        if self.kind is None:
            return False
        if self.sub is None:
            return True
        return self.kind == "separator" and self.sub in SEPARATOR_SUBPORTS

    @property
    def holds_fluid(self) -> bool:
        """True for locations with state (not ports, not unknown names)."""
        return self.is_valid and self.kind not in ("input-port", "output-port")


@unique
class AccessKind(Enum):
    READ_METERED = "read-metered"   # move with a planned volume
    READ_DRAIN = "read-drain"       # move with implicit whole volume
    READ_OUTPUT = "read-output"     # output drains the source off-chip
    READ_FEED = "read-feed"         # mix/incubate/concentrate/separate operand
    READ_SENSE = "read-sense"       # non-destructive optical read
    WRITE_FILL = "write-fill"       # input loading a location
    WRITE_DEPOSIT = "write-deposit"  # move/move-abs destination
    WRITE_PRODUCE = "write-produce"  # separate filling its outlet wells


_READS = tuple(kind for kind in AccessKind if kind.value.startswith("read-"))
# the members the steps name on every instruction, as module globals: an
# Enum member looked up on its class costs ten times a global read
_READ_METERED = AccessKind.READ_METERED
_READ_DRAIN = AccessKind.READ_DRAIN
_READ_OUTPUT = AccessKind.READ_OUTPUT
_READ_FEED = AccessKind.READ_FEED
_WRITE_DEPOSIT = AccessKind.WRITE_DEPOSIT

_HOLDS = ContentKind.HOLDS
_CONSUMED = ContentKind.CONSUMED
#: contents a read finds nothing in.
_DRY = (ContentKind.EMPTY, ContentKind.CONSUMED)
_EMPTY = AbsContent.empty()
_UNKNOWN = AbsContent.unknown()
_UNBOUNDED = VolumeInterval()
_ZERO = VolumeInterval.zero()
#: contents that may hold fluid.
_MAY_HOLD = (ContentKind.HOLDS, ContentKind.UNKNOWN)


class Access(NamedTuple):
    """One touch of a fluid location by one instruction."""

    index: int
    place: Place
    kind: AccessKind
    before: AbsContent            # abstract content at access time
    moved: VolumeInterval | None = None
    guarded: bool = False

    @property
    def is_read(self) -> bool:
        return self.kind in _READS


@dataclass
class ValueFlow:
    """Def-use graph over instruction indices."""

    #: producing instruction -> human label ("input s1 (Glucose)").
    producers: dict[int, str]
    #: fluid-flow edges: producing/consuming instruction adjacency.
    edges: dict[int, set[int]]
    #: sense instructions and product (non-discard) outputs.
    product_sinks: set[int]
    #: codegen discard/excess/residue outputs.
    waste_sinks: set[int]

    def reaches_product(self, index: int) -> bool:
        """Does fluid produced at ``index`` transitively reach a sink?"""
        seen: set[int] = set()
        stack = [index]
        while stack:
            node = stack.pop()
            if node in self.product_sinks:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self.edges.get(node, ()))
        return False


def _deposit(
    before: AbsContent,
    moved: VolumeInterval,
    defs: frozenset[int],
    capacity: Volume | None,
    product: bool,
) -> AbsContent:
    """The contents of a location holding ``before`` after ``moved``
    arrives: held contents accumulate it (and keep their product mark);
    ``product`` marks a finished fluid (an ``input`` load)."""
    if before.kind not in _MAY_HOLD:
        return AbsContent(_HOLDS, moved.clamped(capacity), defs, product)
    return AbsContent(
        _HOLDS,
        before.volume.add(moved).clamped(capacity),
        before.defs | defs,
        product or before.product,
    )


def is_waste_output(instruction: Instruction) -> bool:
    """Codegen marks its housekeeping outputs; text round-trips keep the
    ``discard …`` comment."""
    if instruction.opcode is not Opcode.OUTPUT:
        return False
    meta = instruction.meta
    if "discard" in meta or "excess" in meta or "residue" in meta:
        return True
    comment = instruction.comment or ""
    return comment.startswith("discard")


class ForwardAnalysis:
    """One abstract-interpretation pass; all facts are computed eagerly.

    ``initial`` seeds locations with contents the program starts with
    (volumes in least counts).  ``observe``, when given, is called as
    ``observe(index, state)`` just before each instruction steps, with
    the live :class:`AbstractState` (its pre-state) — for clients that
    need every location at one program point without a copy per
    instruction.

    Each instruction is decoded once, where it steps: its operands are
    classified through one table per walk (``(base, sub)`` to the
    :class:`Place` and whether the location holds state), a move is a
    drain or a metered draw, an absolute volume is counted in least
    counts, and a guard makes the step's updates weak.
    """

    def __init__(
        self,
        program: AISProgram,
        spec: MachineSpec,
        *,
        initial: Mapping[str, AbsContent] | None = None,
        observe: Callable[[int, AbstractState], None] | None = None,
    ) -> None:
        self.program = program
        self.spec = spec
        self.least_count = spec.limits.least_count
        self.accesses: list[Access] = []
        self.flow = ValueFlow({}, {}, set(), set())
        self.state = AbstractState(initial)
        #: (base, sub) -> (place, whether the walk tracks its contents).
        self._located: dict[tuple[str, str | None], tuple[Place, bool]] = {}
        self._run(observe)

    # ------------------------------------------------------------------
    def units(self, volume: Fraction) -> Volume:
        """``volume`` nl counted in least counts."""
        least = self.least_count
        num = volume.numerator * least.denominator
        den = volume.denominator * least.numerator
        return num // den if num % den == 0 else Fraction(num, den)

    def nl(self, volume: Volume) -> Fraction:
        """A walk volume (in least counts) back in nl."""
        return volume * self.least_count

    # ------------------------------------------------------------------
    def place(self, operand: Operand) -> Place:
        return self._locate(operand)[0]

    def _locate(self, operand: Operand) -> tuple[Place, bool]:
        """The operand's place, and whether the walk keeps its contents
        (locations with state, and unknown names)."""
        key = (operand.base, operand.sub)
        located = self._located.get(key)
        if located is None:
            capacity = self.spec.location_capacity(operand.base)
            place = Place(
                text=str(operand),
                base=operand.base,
                sub=operand.sub,
                kind=self.spec.component_kind(operand.base),
                capacity=None if capacity is None else self.units(capacity),
            )
            located = (place, place.holds_fluid or place.kind is None)
            self._located[key] = located
        return located

    # ------------------------------------------------------------------
    def _run(
        self, observe: Callable[[int, AbstractState], None] | None
    ) -> None:
        state = self.state
        for index, instruction in enumerate(self.program.instructions):
            if observe is not None:
                observe(index, state)
            step = _STEPS.get(instruction.opcode)
            if step is not None:  # dry instructions hold no fluid
                guarded = instruction.meta.get("guard") is not None
                step(self, index, instruction, guarded)

    # ------------------------------------------------------------------
    def _add_flow(self, sources: frozenset[int], target: int) -> None:
        edges = self.flow.edges
        for source in sources:
            edges.setdefault(source, set()).add(target)

    def _label(self, index: int, instruction: Instruction, what: str) -> None:
        tag = f" ({instruction.comment})" if instruction.comment else ""
        self.flow.producers[index] = f"{what}{tag}"

    # -- wet steps ------------------------------------------------------
    def _step_input(
        self, index: int, instruction: Instruction, guarded: bool
    ) -> None:
        dst, tracked = self._locate(instruction.dst)
        src = self._locate(instruction.src)[0]
        before = self.state.get(dst.text)
        if instruction.abs_volume is not None:
            moved = VolumeInterval.exact(self.units(instruction.abs_volume))
        else:
            moved = VolumeInterval.at_most(
                dst.capacity if dst.capacity is not None
                else self.units(self.spec.limits.max_capacity)
            )
        # src is a port, stateless; record the access for operand checks.
        self.accesses.append(
            Access(index, src, _READ_METERED, _UNKNOWN, moved, guarded)
        )
        self.accesses.append(
            Access(index, dst, AccessKind.WRITE_FILL, before, moved, guarded)
        )
        if tracked:
            self.state.set(
                dst.text,
                _deposit(before, moved, frozenset((index,)), dst.capacity, True),
                guarded,
            )
        self._label(index, instruction, f"input {dst.text}")

    def _step_output(
        self, index: int, instruction: Instruction, guarded: bool
    ) -> None:
        src, tracked = self._locate(instruction.src)
        before = self.state.get(src.text)
        self.accesses.append(
            Access(index, src, _READ_OUTPUT, before, None, guarded)
        )
        self._add_flow(before.defs, index)
        if is_waste_output(instruction):
            self.flow.waste_sinks.add(index)
        else:
            self.flow.product_sinks.add(index)
        # draining an empty (or untracked) location changes nothing
        if tracked and before.kind is _HOLDS:
            self.state.set(
                src.text, AbsContent(_CONSUMED, _ZERO, before.defs), guarded
            )

    def _step_move(
        self, index: int, instruction: Instruction, guarded: bool
    ) -> None:
        src, src_tracked = self._locate(instruction.src)
        dst, dst_tracked = self._locate(instruction.dst)
        state = self.state
        src_before = state.get(src.text)
        dst_before = state.get(dst.text)
        defs = src_before.defs
        held = src_before.kind is _HOLDS
        # nothing definite leaves an empty source: it degrades to UNKNOWN
        # and the destination joins its old contents with the deposit
        dry = src_before.kind in _DRY
        # an ``edge`` move is metered: the executor resolves it against
        # the volume plan, so only a truly bare move drains its source.
        if (
            instruction.opcode is Opcode.MOVE
            and instruction.rel_volume is None
            and instruction.abs_volume is None
            and instruction.edge is None
        ):
            read = _READ_DRAIN
            moved = src_before.volume if held else _UNBOUNDED
            residue = AbsContent(_CONSUMED, _ZERO, defs)
        else:
            read = _READ_METERED
            if instruction.abs_volume is not None:
                units = self.units(instruction.abs_volume)
                moved = VolumeInterval(units, units)
            else:  # a metered draw moves at least one least count
                moved = VolumeInterval(
                    1, src_before.volume.hi if held else None
                )
            residue = AbsContent(
                _HOLDS,
                src_before.volume.subtract(moved),
                defs,
                src_before.product,
            ) if held else src_before
        accesses = self.accesses
        accesses.append(Access(index, src, read, src_before, moved, guarded))
        accesses.append(
            Access(index, dst, _WRITE_DEPOSIT, dst_before, moved, guarded)
        )
        if src_tracked:
            state.set(src.text, _UNKNOWN if dry else residue, guarded)
        if dst_tracked:
            # a sensor is a flow cell: the new sample replaces the last one
            held = _EMPTY if dst.kind == "sensor" else dst_before
            after = _deposit(held, moved, defs, dst.capacity, False)
            if dry:
                after = dst_before.join(after)
            state.set(dst.text, after, guarded)

    def _step_operate(
        self, index: int, instruction: Instruction, guarded: bool
    ) -> None:
        """mix / incubate / concentrate: in-place operation on a unit,
        whose contents become a product."""
        unit = self._locate(instruction.dst)[0]
        before = self.state.get(unit.text)
        self.accesses.append(
            Access(index, unit, _READ_FEED, before, None, guarded)
        )
        opcode = instruction.opcode
        if opcode is Opcode.MIX:
            # the homogenised mixture is a fresh value
            self._add_flow(before.defs, index)
            self._label(index, instruction, f"mix in {unit.text}")
            volume = before.volume if before.kind is _HOLDS else _UNBOUNDED
            defs = frozenset((index,))
        elif before.kind is not _HOLDS:
            return
        elif opcode is Opcode.CONCENTRATE:
            keep = instruction.meta.get("keep_fraction")
            if keep is not None:
                volume = before.volume.scaled(Fraction(keep))
            elif before.volume.hi is not None:
                volume = VolumeInterval.at_most(before.volume.hi)
            else:
                volume = _UNBOUNDED
            defs = before.defs
        else:  # incubate: volume conserving
            volume, defs = before.volume, before.defs
        self.state.set(
            unit.text, AbsContent(_HOLDS, volume, defs, True), guarded
        )

    def _step_separate(
        self, index: int, instruction: Instruction, guarded: bool
    ) -> None:
        unit, tracked = self._locate(instruction.dst)
        state = self.state
        before = state.get(unit.text)
        self.accesses.append(
            Access(index, unit, _READ_FEED, before, None, guarded)
        )
        contributing = set(before.defs)
        feed_hi = before.volume.hi if before.kind is _HOLDS else None
        # matrix and pusher are spent driving the run
        for well in ("matrix", "pusher"):
            well_text = f"{unit.base}.{well}"
            well_before = state.get(well_text)
            contributing |= well_before.defs
            if unit.kind == "separator":
                state.set(
                    well_text,
                    AbsContent(_CONSUMED, _ZERO, well_before.defs),
                    guarded,
                )
        self._add_flow(frozenset(contributing), index)
        self._label(index, instruction, f"separate.{instruction.mode} {unit.text}")
        if tracked:
            state.set(
                unit.text,
                _UNKNOWN if before.kind in _DRY
                else AbsContent(_CONSUMED, _ZERO, before.defs),
                guarded,
            )
        # outlets are flushed at run start, then filled by this run
        outlet_volume = (
            VolumeInterval.at_most(feed_hi) if feed_hi is not None
            else _UNBOUNDED
        )
        for outlet in ("out1", "out2"):
            place = self._locate(Operand(unit.base, outlet))[0]
            self.accesses.append(
                Access(
                    index, place, AccessKind.WRITE_PRODUCE, state.get(place.text),
                    outlet_volume, guarded,
                )
            )
            state.set(
                place.text,
                AbsContent(_HOLDS, outlet_volume, frozenset((index,)), True),
                guarded,
            )

    def _step_sense(
        self, index: int, instruction: Instruction, guarded: bool
    ) -> None:
        unit = self._locate(instruction.dst)[0]
        before = self.state.get(unit.text)
        self.accesses.append(
            Access(index, unit, AccessKind.READ_SENSE, before, None, guarded)
        )
        self._add_flow(before.defs, index)
        self.flow.product_sinks.add(index)
        # non-destructive: the sample stays in the cell


#: the one dispatch table: each wet opcode's step (dry instructions hold
#: no fluid and have none).
_STEPS = {
    Opcode.INPUT: ForwardAnalysis._step_input,
    Opcode.OUTPUT: ForwardAnalysis._step_output,
    Opcode.MOVE: ForwardAnalysis._step_move,
    Opcode.MOVE_ABS: ForwardAnalysis._step_move,
    Opcode.MIX: ForwardAnalysis._step_operate,
    Opcode.INCUBATE: ForwardAnalysis._step_operate,
    Opcode.CONCENTRATE: ForwardAnalysis._step_operate,
    Opcode.SEPARATE: ForwardAnalysis._step_separate,
    Opcode.SENSE: ForwardAnalysis._step_sense,
}
