"""Schedule interference: occupancy analysis of the emitted program.

Walks the instruction stream in schedule order, maintaining which fluid
occupies every location (reservoirs, functional units, separator
sub-wells, sensors), and flags hardware interference:

* a transfer that deposits into a component already holding another live
  fluid (``SCHED-DOUBLE-BOOK``);
* a transfer or unit operation reading an empty component
  (``SCHED-DRY-PUMP`` — the dry-transport hazard);
* one input port sourcing two different fluids (``SCHED-PORT-CLASH``);
* a transfer with no channel route on the given topology
  (``SCHED-UNROUTABLE``), or whose route passes through an occupied
  component (``SCHED-ROUTE-THROUGH`` — the wet-transport hazard);
* with an explicit slot schedule, concurrent transfers whose routes
  contend for a shared segment, pump, or junction
  (``SCHED-ROUTE-OVERLAP`` via
  :meth:`~repro.machine.topology.ChannelTopology.conflicts`).

The model mirrors the code generator's conventions without trusting it:
a **bare** move drains its source while a **metered** move leaves a
remainder; ``output`` from an empty location is a hardware no-op (the
generator flushes units defensively); moving into a *filling* unit merges
(that is how mixes accumulate ingredients, and how a sensor accepts the
next sample over the last one); ``mix``/``incubate``/``concentrate``/
``separate`` promote the unit's content to a *product*, which no transfer
may then clobber.  Instructions guarded by a dynamic condition are
applied weakly: their effects are tracked as *unknown* and never flagged,
since whether they execute is decided at run time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence

from ...compiler.diagnostics import Diagnostic, Severity
from ...ir.instructions import Instruction, Opcode, Operand, fluid_label
from ...ir.program import AISProgram
from ...machine.errors import ComponentError
from ...machine.spec import MachineSpec
from ...machine.topology import ChannelTopology

__all__ = ["OccupancyRecord", "certify_schedule"]


@dataclass
class _Hold:
    """One location's current content."""

    fluids: set[str] = field(default_factory=set)
    #: "filling" while ingredients accumulate (or a sample awaits
    #: sensing); "product" once an operation completed in place or a
    #: fluid was parked in a reservoir.
    state: str = "filling"
    #: set when the hold was created or mutated under a dynamic guard —
    #: its presence is not statically known, so it never raises findings.
    unknown: bool = False
    #: instruction index that created the hold (for diagnostics).
    start: int = 0


@dataclass(frozen=True)
class OccupancyRecord:
    """One completed occupancy interval, for reporting and benchmarks."""

    location: str
    fluids: tuple[str, ...]
    start: int  # instruction index that filled the location
    end: int    # instruction index that released it


class _ScheduleChecker:
    def __init__(
        self,
        program: AISProgram,
        spec: MachineSpec,
        topology: ChannelTopology | None,
        *,
        initial: dict[str, str] | None = None,
        slots: Sequence[int] | None = None,
    ) -> None:
        self.program = program
        self.spec = spec
        self.topology = topology
        self.slots = slots
        self.holds: dict[str, _Hold] = {}
        self.port_fluid: dict[str, str] = {}
        self.findings: list[Diagnostic] = []
        self.records: list[OccupancyRecord] = []
        for location, fluid in (initial or {}).items():
            self.holds[location] = _Hold({fluid}, state="product", start=-1)

    # ------------------------------------------------------------------
    def emit(
        self,
        severity: Severity,
        code: str,
        message: str,
        *,
        index: int,
        operand: str | None = None,
    ) -> None:
        self.findings.append(
            Diagnostic(
                severity, code, message, instruction=index, operand=operand
            )
        )

    # ------------------------------------------------------------------
    def run(self) -> tuple[list[Diagnostic], list[OccupancyRecord]]:
        for index, instruction in enumerate(self.program.instructions):
            if not instruction.is_wet:
                continue
            guarded = instruction.meta.get("guard") is not None
            op = instruction.opcode
            if op is Opcode.INPUT:
                self._do_input(index, instruction, guarded)
            elif op is Opcode.OUTPUT:
                self._do_output(index, instruction, guarded)
            elif op in (Opcode.MOVE, Opcode.MOVE_ABS):
                self._do_move(index, instruction, guarded)
            elif op in (Opcode.MIX, Opcode.INCUBATE, Opcode.CONCENTRATE):
                self._do_unit_op(index, instruction, guarded)
            elif op is Opcode.SEPARATE:
                self._do_separate(index, instruction, guarded)
            elif op is Opcode.SENSE:
                self._do_sense(index, instruction, guarded)
        self._check_slot_overlaps()
        for location, hold in sorted(self.holds.items()):
            self.records.append(
                OccupancyRecord(
                    location,
                    tuple(sorted(hold.fluids)),
                    hold.start,
                    len(self.program.instructions),
                )
            )
        return self.findings, self.records

    # ------------------------------------------------------------------
    # primitive state transitions
    # ------------------------------------------------------------------
    def _release(self, location: str, index: int) -> None:
        hold = self.holds.pop(location, None)
        if hold is not None:
            self.records.append(
                OccupancyRecord(
                    location, tuple(sorted(hold.fluids)), hold.start, index
                )
            )

    def _deposit(
        self,
        location: str,
        fluid: str,
        index: int,
        *,
        state: str,
        guarded: bool,
    ) -> None:
        hold = self.holds.get(location)
        if hold is None:
            self.holds[location] = _Hold(
                {fluid}, state=state, unknown=guarded, start=index
            )
        else:
            hold.fluids.add(fluid)
            hold.unknown = hold.unknown or guarded
            if state == "product":
                hold.state = "product"

    def _check_route(
        self, index: int, src: str, dst: str, guarded: bool
    ) -> None:
        if self.topology is None:
            return
        try:
            path = self.topology.route(src, dst)
        except ComponentError:
            self.emit(
                Severity.ERROR,
                "SCHED-UNROUTABLE",
                f"no channel route from {src!r} to {dst!r} on topology "
                f"{self.topology.name!r}",
                index=index,
                operand=dst,
            )
            return
        if guarded:
            return
        through = set(path[1:-1])
        for location, hold in self.holds.items():
            if hold.unknown:
                continue
            base = location.split(".")[0]
            if base in through:
                self.emit(
                    Severity.WARNING,
                    "SCHED-ROUTE-THROUGH",
                    f"transfer {src!r} -> {dst!r} routes through "
                    f"{base!r}, which holds "
                    f"{', '.join(sorted(hold.fluids))}",
                    index=index,
                    operand=base,
                )

    # ------------------------------------------------------------------
    # opcode handlers
    # ------------------------------------------------------------------
    def _do_input(
        self, index: int, instruction: Instruction, guarded: bool
    ) -> None:
        port = str(instruction.src)
        dst = str(instruction.dst)
        fluid = fluid_label(instruction)
        self._check_route(index, port, dst, guarded)
        seen = self.port_fluid.get(port)
        if seen is not None and seen != fluid and not guarded:
            self.emit(
                Severity.ERROR,
                "SCHED-PORT-CLASH",
                f"input port {port!r} sources {fluid!r} after already "
                f"sourcing {seen!r}",
                index=index,
                operand=port,
            )
        self.port_fluid.setdefault(port, fluid)
        hold = self.holds.get(dst)
        if hold is not None and not hold.unknown and not guarded:
            self.emit(
                Severity.ERROR,
                "SCHED-DOUBLE-BOOK",
                f"input into {dst!r} while it still holds "
                f"{', '.join(sorted(hold.fluids))}",
                index=index,
                operand=dst,
            )
        self._deposit(dst, fluid, index, state="product", guarded=guarded)

    def _do_output(
        self, index: int, instruction: Instruction, guarded: bool
    ) -> None:
        src = str(instruction.src)
        # Draining an empty location is a hardware no-op; the generator
        # flushes units defensively, so this is never a finding.
        if src not in self.holds:
            return
        self._check_route(index, src, str(instruction.dst), guarded)
        if guarded:
            self.holds[src].unknown = True
        else:
            self._release(src, index)

    def _do_move(
        self, index: int, instruction: Instruction, guarded: bool
    ) -> None:
        src = str(instruction.src)
        dst = str(instruction.dst)
        # a move is metered when it carries an explicit volume or an
        # ``edge`` annotation (the executor resolves those against the
        # volume plan at run time); only a truly bare move drains.
        metered = (
            instruction.rel_volume is not None
            or instruction.abs_volume is not None
            or instruction.edge is not None
        )
        source = self.holds.get(src)
        if source is None:
            if not guarded and not self._port_source(instruction.src):
                self.emit(
                    Severity.ERROR,
                    "SCHED-DRY-PUMP",
                    f"move from {src!r}, which holds nothing",
                    index=index,
                    operand=src,
                )
            fluids = {fluid_label(instruction)}
            unknown_src = True
        else:
            fluids = set(source.fluids)
            unknown_src = source.unknown
        self._check_route(index, src, dst, guarded)

        target = self.holds.get(dst)
        if (
            target is not None
            and not target.unknown
            and not guarded
            and not unknown_src
        ):
            collision = (
                target.state == "product"
                or self.spec.component_kind(dst.split(".")[0]) == "reservoir"
            )
            if collision:
                self.emit(
                    Severity.ERROR,
                    "SCHED-DOUBLE-BOOK",
                    f"move into {dst!r} while it still holds "
                    f"{', '.join(sorted(target.fluids))}",
                    index=index,
                    operand=dst,
                )
        # source bookkeeping: a bare move drains, a metered one meters.
        if source is not None:
            if guarded:
                source.unknown = True
            elif not metered:
                self._release(src, index)
        # destination: reservoirs hold finished fluids; units accumulate.
        dst_state = (
            "product"
            if self.spec.component_kind(dst.split(".")[0]) == "reservoir"
            else "filling"
        )
        for fluid in fluids:
            self._deposit(
                dst,
                fluid,
                index,
                state=dst_state,
                guarded=guarded or unknown_src,
            )

    def _port_source(self, operand: Operand | None) -> bool:
        if operand is None:
            return False
        return self.spec.component_kind(operand.base) == "input-port"

    def _do_unit_op(
        self, index: int, instruction: Instruction, guarded: bool
    ) -> None:
        unit = str(instruction.dst)
        hold = self.holds.get(unit)
        if hold is None:
            if not guarded:
                self.emit(
                    Severity.ERROR,
                    "SCHED-DRY-PUMP",
                    f"{instruction.opcode.value} on empty unit {unit!r}",
                    index=index,
                    operand=unit,
                )
            self.holds[unit] = _Hold(
                {fluid_label(instruction)},
                state="product",
                unknown=True,
                start=index,
            )
            return
        hold.state = "product"
        hold.unknown = hold.unknown or guarded

    def _do_separate(
        self, index: int, instruction: Instruction, guarded: bool
    ) -> None:
        unit = str(instruction.dst)
        feed = self.holds.get(unit)
        if feed is None and not guarded:
            self.emit(
                Severity.ERROR,
                "SCHED-DRY-PUMP",
                f"separate on empty unit {unit!r}",
                index=index,
                operand=unit,
            )
        outlet = f"{unit}.out1"
        pending = self.holds.get(outlet)
        if pending is not None and not pending.unknown and not guarded:
            self.emit(
                Severity.ERROR,
                "SCHED-DOUBLE-BOOK",
                f"separation deposits into {outlet!r} while it still "
                f"holds {', '.join(sorted(pending.fluids))}",
                index=index,
                operand=outlet,
            )
        fluids = set(feed.fluids) if feed is not None else set()
        fluids.add(fluid_label(instruction))
        unknown = guarded or (feed.unknown if feed is not None else True)
        # the separation consumes the feed and both auxiliary wells
        for well in (unit, f"{unit}.matrix", f"{unit}.pusher", outlet):
            if well in self.holds:
                self._release(well, index)
        self.holds[outlet] = _Hold(
            fluids, state="product", unknown=unknown, start=index
        )

    def _do_sense(
        self, index: int, instruction: Instruction, guarded: bool
    ) -> None:
        unit = str(instruction.dst)
        hold = self.holds.get(unit)
        if hold is None and not guarded:
            self.emit(
                Severity.ERROR,
                "SCHED-DRY-PUMP",
                f"sense on empty unit {unit!r}",
                index=index,
                operand=unit,
            )
        # non-destructive read: the sample stays where it is

    # ------------------------------------------------------------------
    def _check_slot_overlaps(self) -> None:
        if self.slots is None or self.topology is None:
            return
        transfers: dict[int, list[tuple[int, str, str]]] = {}
        for index, instruction in enumerate(self.program.instructions):
            if instruction.opcode not in (
                Opcode.INPUT,
                Opcode.OUTPUT,
                Opcode.MOVE,
                Opcode.MOVE_ABS,
            ):
                continue
            if index >= len(self.slots):
                break
            src, dst = str(instruction.src), str(instruction.dst)
            transfers.setdefault(self.slots[index], []).append(
                (index, src, dst)
            )
        for slot, group in sorted(transfers.items()):
            for position, (index_a, src_a, dst_a) in enumerate(group):
                for index_b, src_b, dst_b in group[position + 1:]:
                    # a chained pair (one's destination is the other's
                    # source) is a deliberate hand-off: sharing that
                    # endpoint is the point, so only deeper contention
                    # counts against it.
                    chained = dst_a == src_b or dst_b == src_a
                    try:
                        conflict = self.topology.conflicts(
                            (src_a, dst_a),
                            (src_b, dst_b),
                            allow_shared_endpoint=chained,
                        )
                    except ComponentError:
                        continue  # unroutable: already reported above
                    if conflict:
                        self.emit(
                            Severity.ERROR,
                            "SCHED-ROUTE-OVERLAP",
                            f"slot {slot}: transfers {src_a!r}->{dst_a!r} "
                            f"(instr {index_a}) and {src_b!r}->{dst_b!r} "
                            f"(instr {index_b}) contend for a shared "
                            "channel",
                            index=index_b,
                            operand=dst_b,
                        )


def certify_schedule(
    program: AISProgram,
    spec: MachineSpec,
    *,
    topology: ChannelTopology | None = None,
    initial: dict[str, str] | None = None,
    slots: Sequence[int] | None = None,
) -> tuple[list[Diagnostic], list[OccupancyRecord]]:
    """Check an instruction schedule for hardware interference.

    Args:
        program: the emitted AIS program (compiled or hand-written).
        spec: machine description for component classification.
        topology: channel graph for routability and wet-path findings;
            ``None`` checks occupancy only.
        initial: pre-seeded occupancy — location name to fluid label —
            for fluids a previous partition left behind (constrained
            inputs appear in reservoirs with no ``input`` instruction).
        slots: optional time slot per instruction index; instructions
            sharing a slot are treated as concurrent and their routes
            checked pairwise for contention.

    Returns:
        ``(findings, occupancy)`` — diagnostics plus the completed
        occupancy intervals (useful for reports and benchmarks).
    """
    checker = _ScheduleChecker(
        program, spec, topology, initial=initial, slots=slots
    )
    return checker.run()
