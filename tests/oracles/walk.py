"""Reference occupancy walk: one method per step over a dict of contents.

This is :class:`repro.analysis.dataflow.ForwardAnalysis` as it was before
the walk decoded each instruction once and wrote its steps inline: every
step classifies its operands through :meth:`ForwardAnalysis.place`,
records each access through ``_access``, and updates the location map
through :meth:`AbstractState.set`.  That class is kept here with its
``weak`` flag, and ``AbsContent.deposit`` and ``.after_metered_draw``
as :func:`_deposit` and :func:`_after_metered_draw`.  The walk shares the fact types
(:class:`~repro.analysis.dataflow.Place`, ``Access``, ``AccessKind``,
``ValueFlow``) and the abstract domain's values (``AbsContent``,
``VolumeInterval``) with the production walk, so the two are compared
fact for fact.  ``tests/properties/test_walk_equivalence.py`` requires
the same accesses, value flow, final location order and pre-state at
every instruction.

:class:`Routes` is the certifier's route check as it was before it
looked up each transfer's route ahead of the walk: an observer called at
every instruction, stringifying each transfer's operands.  The same
property requires the production check's ``SCHED-UNROUTABLE`` findings
and route-through records to match it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping
from fractions import Fraction

from repro.analysis.dataflow import (
    Access,
    AccessKind,
    Place,
    ValueFlow,
    is_waste_output,
)
from repro.analysis.state import AbsContent, ContentKind, Volume, VolumeInterval
from repro.compiler.diagnostics import Diagnostic, Severity
from repro.ir.instructions import Instruction, Opcode, Operand
from repro.ir.program import AISProgram
from repro.machine.errors import ComponentError
from repro.machine.spec import MachineSpec
from repro.machine.topology import ChannelTopology

__all__ = ["AbstractState", "ForwardAnalysis", "Routes"]

_EMPTY = AbsContent.empty()
_MAY_HOLD = (ContentKind.HOLDS, ContentKind.UNKNOWN)
_EMPTY_KINDS = (ContentKind.EMPTY, ContentKind.CONSUMED)
_TRANSFERS = (Opcode.INPUT, Opcode.OUTPUT, Opcode.MOVE, Opcode.MOVE_ABS)


def _after_metered_draw(
    content: AbsContent, moved: VolumeInterval
) -> AbsContent:
    """Residue after a partial draw: still HOLDS (rounded plans leave
    sub-least-count residue behind), volume reduced, defs retained."""
    if content.kind is not ContentKind.HOLDS:
        return content
    return content._replace(volume=content.volume.subtract(moved))


def _deposit(
    content: AbsContent,
    moved: VolumeInterval,
    defs: frozenset[int],
    *,
    capacity: Volume | None = None,
    replace_contents: bool = False,
    product: bool = False,
) -> AbsContent:
    """The post-state of depositing ``moved`` into this location.

    ``replace_contents`` models flow cells (sensors flush the previous
    sample when a new one arrives); ``product`` marks a deposit that
    is a finished fluid (an ``input`` load).  Merging into held
    contents keeps their product mark.
    """
    if replace_contents or not content.may_hold_fluid:
        return AbsContent.holding(moved.clamped(capacity), defs, product)
    return AbsContent.holding(
        content.volume.add(moved).clamped(capacity),
        content.defs | defs,
        product or content.product,
    )


class AbstractState:
    """Per-location abstract contents; a location never set is EMPTY.

    Locations are kept in the order their current occupancy began: one
    that goes from empty (or consumed) to possibly holding fluid moves
    to the end.
    """

    def __init__(self, initial: Mapping[str, AbsContent] | None = None) -> None:
        self._locations: dict[str, AbsContent] = dict(initial or {})
        #: while set, updates are weak: the old contents stay possible
        #: (a guarded instruction may not execute at all).
        self.weak = False

    def get(self, location: str) -> AbsContent:
        return self._locations.get(location, _EMPTY)

    def set(self, location: str, content: AbsContent) -> None:
        old = self._locations.get(location, _EMPTY)
        if self.weak:
            content = old.join(content)
        if content.kind in _MAY_HOLD and old.kind not in _MAY_HOLD:
            self._locations.pop(location, None)
        self._locations[location] = content

    def items(self) -> Iterator[tuple[str, AbsContent]]:
        """``(location, contents)`` pairs, in occupancy order."""
        return iter(self._locations.items())


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
                _deposit(
                    before, moved, frozenset({index}), capacity=dst.capacity,
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
                self.state.set(src.text, _after_metered_draw(src_before, moved))
        # destination post-state
        if dst.holds_fluid or dst.kind is None:
            after = _deposit(
                dst_before,
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


class Routes:
    """The certifier's route checks, made on the walk's live pre-state of
    every transfer: ``observe`` runs at each instruction."""

    def __init__(
        self,
        program: AISProgram,
        spec: MachineSpec,
        topology: ChannelTopology,
    ) -> None:
        self.program = program
        self.spec = spec
        self.topology = topology
        self.unroutable: list[Diagnostic] = []
        #: (index, src, dst, base, content) per occupied location passed.
        self.through: list[tuple[int, str, str, str, AbsContent]] = []
        #: per (src, dst): the components its route passes, None when
        #: there is no route.
        self._passed: dict[tuple[str, str], frozenset[str] | None] = {}

    def _components_passed(self, src: str, dst: str) -> frozenset[str] | None:
        key = (src, dst)
        if key not in self._passed:
            try:
                path = self.topology.route(src, dst)
            except ComponentError:
                self._passed[key] = None
            else:
                # the components passed on the way (a bus junction holds
                # nothing)
                self._passed[key] = frozenset(
                    node for node in path[1:-1] if self.spec.component_kind(node)
                )
        return self._passed[key]

    def observe(self, index: int, state: AbstractState) -> None:
        instruction = self.program.instructions[index]
        if instruction.opcode not in _TRANSFERS:
            return
        src, dst = str(instruction.src), str(instruction.dst)
        if instruction.opcode is Opcode.OUTPUT and state.get(src).kind in _EMPTY_KINDS:
            return
        through = self._components_passed(src, dst)
        if through is None:
            self.unroutable.append(
                Diagnostic(
                    Severity.ERROR,
                    "SCHED-UNROUTABLE",
                    f"no channel route from {src!r} to {dst!r} on topology "
                    f"{self.topology.name!r}",
                    instruction=index,
                    operand=dst,
                )
            )
            return
        if not through or instruction.meta.get("guard") is not None:
            return
        for location, content in state.items():
            base = location.partition(".")[0]
            if base in through and content.kind is ContentKind.HOLDS:
                self.through.append((index, src, dst, base, content))
