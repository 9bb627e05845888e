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
        self._place_cache: dict[tuple[str, str | None], Place] = {}
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
        key = (operand.base, operand.sub)
        cached = self._place_cache.get(key)
        if cached is None:
            capacity = self.spec.location_capacity(operand.base)
            cached = Place(
                text=str(operand),
                base=operand.base,
                sub=operand.sub,
                kind=self.spec.component_kind(operand.base),
                capacity=None if capacity is None else self.units(capacity),
            )
            self._place_cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    def _run(
        self, observe: Callable[[int, AbstractState], None] | None
    ) -> None:
        steps = {
            Opcode.INPUT: self._step_input,
            Opcode.OUTPUT: self._step_output,
            Opcode.MOVE: self._step_move,
            Opcode.MOVE_ABS: self._step_move,
            Opcode.MIX: self._step_operate,
            Opcode.INCUBATE: self._step_operate,
            Opcode.CONCENTRATE: self._step_operate,
            Opcode.SEPARATE: self._step_separate,
            Opcode.SENSE: self._step_sense,
        }
        state = self.state
        for index, instruction in enumerate(self.program):
            if observe is not None:
                observe(index, state)
            step = steps.get(instruction.opcode)
            if step is not None:  # dry instructions hold no fluid
                state.weak = instruction.meta.get("guard") is not None
                step(index, instruction, state.weak)
        state.weak = False

    # ------------------------------------------------------------------
    def _access(
        self,
        index: int,
        place: Place,
        kind: AccessKind,
        before: AbsContent,
        *,
        moved: VolumeInterval | None = None,
        guarded: bool = False,
    ) -> None:
        self.accesses.append(Access(index, place, kind, before, moved, guarded))

    def _add_flow(self, sources: frozenset[int], target: int) -> None:
        for source in sources:
            self.flow.edges.setdefault(source, set()).add(target)

    def _label(self, index: int, instruction: Instruction, what: str) -> None:
        tag = f" ({instruction.comment})" if instruction.comment else ""
        self.flow.producers[index] = f"{what}{tag}"

    def _read_violated(self, content: AbsContent) -> bool:
        return content.kind in (ContentKind.EMPTY, ContentKind.CONSUMED)

    def _metered_interval(
        self, source: AbsContent, abs_volume: Fraction | None
    ) -> VolumeInterval:
        if abs_volume is not None:
            return VolumeInterval.exact(self.units(abs_volume))
        hi = source.volume.hi if source.kind is ContentKind.HOLDS else None
        return VolumeInterval(1, hi)  # a metered draw moves a least count

    # -- wet steps ------------------------------------------------------
    def _step_input(
        self, index: int, instruction: Instruction, guarded: bool
    ) -> None:
        dst = self.place(instruction.dst)
        src = self.place(instruction.src)
        before = self.state.get(dst.text)
        if instruction.abs_volume is not None:
            moved = VolumeInterval.exact(self.units(instruction.abs_volume))
        else:
            moved = VolumeInterval.at_most(
                dst.capacity if dst.capacity is not None
                else self.units(self.spec.limits.max_capacity)
            )
        # src is a port, stateless; record the access for operand checks.
        self._access(index, src, AccessKind.READ_METERED, AbsContent.unknown(),
                     moved=moved, guarded=guarded)
        self._access(index, dst, AccessKind.WRITE_FILL, before,
                     moved=moved, guarded=guarded)
        if dst.holds_fluid or dst.kind is None:
            self.state.set(
                dst.text,
                before.deposit(
                    moved, frozenset({index}), capacity=dst.capacity,
                    product=True,
                ),
            )
        self._label(index, instruction, f"input {dst.text}")

    def _step_output(
        self, index: int, instruction: Instruction, guarded: bool
    ) -> None:
        src = self.place(instruction.src)
        before = self.state.get(src.text)
        self._access(index, src, AccessKind.READ_OUTPUT, before, guarded=guarded)
        self._add_flow(before.defs, index)
        if is_waste_output(instruction):
            self.flow.waste_sinks.add(index)
        else:
            self.flow.product_sinks.add(index)
        # draining an empty (or untracked) location changes nothing
        if before.kind is ContentKind.HOLDS and (
            src.holds_fluid or src.kind is None
        ):
            self.state.set(src.text, AbsContent.consumed(before.defs))

    def _step_move(
        self, index: int, instruction: Instruction, guarded: bool
    ) -> None:
        src = self.place(instruction.src)
        dst = self.place(instruction.dst)
        src_before = self.state.get(src.text)
        dst_before = self.state.get(dst.text)
        # an ``edge`` move is metered: the executor resolves it against
        # the volume plan, so only a truly bare move drains its source.
        is_drain = (
            instruction.opcode is Opcode.MOVE
            and instruction.rel_volume is None
            and instruction.abs_volume is None
            and instruction.edge is None
        )
        if is_drain:
            moved = src_before.volume if (
                src_before.kind is ContentKind.HOLDS
            ) else VolumeInterval()
            self._access(index, src, AccessKind.READ_DRAIN, src_before,
                         moved=moved, guarded=guarded)
        else:
            moved = self._metered_interval(src_before, instruction.abs_volume)
            self._access(index, src, AccessKind.READ_METERED, src_before,
                         moved=moved, guarded=guarded)
        self._access(index, dst, AccessKind.WRITE_DEPOSIT, dst_before,
                     moved=moved, guarded=guarded)

        # source post-state
        if src.holds_fluid or src.kind is None:
            if self._read_violated(src_before):
                self.state.set(src.text, AbsContent.unknown())
            elif is_drain:
                self.state.set(src.text, AbsContent.consumed(src_before.defs))
            else:
                self.state.set(src.text, src_before.after_metered_draw(moved))
        # destination post-state
        if dst.holds_fluid or dst.kind is None:
            after = dst_before.deposit(
                moved,
                src_before.defs,
                capacity=dst.capacity,
                replace_contents=dst.kind == "sensor",
            )
            if self._read_violated(src_before):
                # nothing definite arrives from an empty source
                after = dst_before.join(after)
            self.state.set(dst.text, after)

    def _step_operate(
        self, index: int, instruction: Instruction, guarded: bool
    ) -> None:
        """mix / incubate / concentrate: in-place operation on a unit,
        whose contents become a product."""
        unit = self.place(instruction.dst)
        before = self.state.get(unit.text)
        self._access(index, unit, AccessKind.READ_FEED, before, guarded=guarded)
        if instruction.opcode is Opcode.MIX:
            # the homogenised mixture is a fresh value
            self._add_flow(before.defs, index)
            self._label(index, instruction, f"mix in {unit.text}")
            content = before if before.kind is ContentKind.HOLDS else (
                AbsContent.unknown()
            )
            self.state.set(
                unit.text,
                AbsContent.holding(content.volume, frozenset({index}), True),
            )
        elif before.kind is not ContentKind.HOLDS:
            return
        elif instruction.opcode is Opcode.CONCENTRATE:
            keep = instruction.meta.get("keep_fraction")
            volume = (
                before.volume.scaled(Fraction(keep))
                if keep is not None
                else VolumeInterval.at_most(
                    before.volume.hi
                ) if before.volume.hi is not None else VolumeInterval()
            )
            self.state.set(
                unit.text, AbsContent.holding(volume, before.defs, True)
            )
        else:
            # incubate: volume conserving
            self.state.set(unit.text, before._replace(product=True))

    def _step_separate(
        self, index: int, instruction: Instruction, guarded: bool
    ) -> None:
        unit = self.place(instruction.dst)
        before = self.state.get(unit.text)
        self._access(index, unit, AccessKind.READ_FEED, before, guarded=guarded)
        contributing = set(before.defs)
        feed_hi = before.volume.hi if before.kind is ContentKind.HOLDS else None
        # matrix and pusher are spent driving the run
        for well in ("matrix", "pusher"):
            well_text = f"{unit.base}.{well}"
            well_before = self.state.get(well_text)
            contributing |= well_before.defs
            if unit.kind == "separator":
                self.state.set(well_text, AbsContent.consumed(well_before.defs))
        self._add_flow(frozenset(contributing), index)
        self._label(index, instruction, f"separate.{instruction.mode} {unit.text}")
        if unit.holds_fluid or unit.kind is None:
            self.state.set(
                unit.text,
                AbsContent.unknown() if self._read_violated(before)
                else AbsContent.consumed(before.defs),
            )
        # outlets are flushed at run start, then filled by this run
        outlet_volume = (
            VolumeInterval.at_most(feed_hi) if feed_hi is not None
            else VolumeInterval()
        )
        for outlet in ("out1", "out2"):
            outlet_text = f"{unit.base}.{outlet}"
            outlet_place = self.place(Operand(unit.base, outlet))
            self._access(
                index, outlet_place, AccessKind.WRITE_PRODUCE,
                self.state.get(outlet_text),
                moved=outlet_volume, guarded=guarded,
            )
            self.state.set(
                outlet_text,
                AbsContent.holding(outlet_volume, frozenset({index}), True),
            )

    def _step_sense(
        self, index: int, instruction: Instruction, guarded: bool
    ) -> None:
        unit = self.place(instruction.dst)
        before = self.state.get(unit.text)
        self._access(index, unit, AccessKind.READ_SENSE, before, guarded=guarded)
        self._add_flow(before.defs, index)
        self.flow.product_sinks.add(index)
        # non-destructive: the sample stays in the cell
