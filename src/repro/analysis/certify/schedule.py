"""Schedule interference: hardware hazards of the emitted program.

What each location holds before each instruction comes from the one
occupancy walk, :class:`~repro.analysis.dataflow.ForwardAnalysis` — the
walk the lint checks and the race detector read, whose rules are
tabulated in ``docs/ANALYSIS.md``.  This module only decides which of
its facts are hardware interference:

* a transfer depositing into a location that definitely holds fluid
  (``SCHED-DOUBLE-BOOK``): any ``input``; a ``move`` of definite fluid
  into a reservoir, or into a unit holding a *product* (a move into a
  unit still accumulating ingredients is how mixes fill and how a sensor
  takes the next sample); a ``separate`` whose ``out1`` still holds the
  last run's effluent (``out2`` holds waste, which the run flushes);
* a move, unit operation, separation or sense reading a location that
  is definitely empty (``SCHED-DRY-PUMP`` — the dry-transport hazard;
  moves straight from an input port are loads, not dry pumps);
* one input port sourcing two different fluids (``SCHED-PORT-CLASH``);
* a transfer with no channel route on the given topology
  (``SCHED-UNROUTABLE``), or whose route passes through a location that
  definitely holds fluid (``SCHED-ROUTE-THROUGH`` — the wet-transport
  hazard; ``output`` from an empty location moves nothing and is not
  routed);
* with an explicit slot schedule, concurrent transfers whose routes
  contend for a shared segment, pump, or junction
  (``SCHED-ROUTE-OVERLAP`` via
  :meth:`~repro.machine.topology.ChannelTopology.conflicts`).

Accesses under a dynamic guard never raise findings: whether they run
is decided at run time.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from functools import cached_property

from ...compiler.diagnostics import Diagnostic, Severity
from ...ir.instructions import Opcode, fluid_label
from ...ir.program import AISProgram
from ...machine.errors import ComponentError
from ...machine.spec import MachineSpec
from ...machine.topology import ChannelTopology
from ..dataflow import AccessKind, ForwardAnalysis
from ..state import AbsContent, AbstractState, ContentKind, VolumeInterval

__all__ = ["certify_schedule"]

_EMPTY = (ContentKind.EMPTY, ContentKind.CONSUMED)
_TRANSFERS = (Opcode.INPUT, Opcode.OUTPUT, Opcode.MOVE, Opcode.MOVE_ABS)
#: the order of one instruction's findings in the report.
_RANK = {
    "SCHED-DRY-PUMP": 0,
    "SCHED-UNROUTABLE": 1,
    "SCHED-ROUTE-THROUGH": 1,
    "SCHED-PORT-CLASH": 2,
    "SCHED-DOUBLE-BOOK": 3,
}


class _FluidNames:
    """Fluid names for a location's def sites, as messages print them:
    an ``input`` names its fluid (:func:`~repro.ir.instructions.
    fluid_label`), an ``initial`` seed its label, a ``mix`` what was fed
    into it, and a ``separate`` its feed plus its own product."""

    def __init__(self, walk: ForwardAnalysis, seeds: Mapping[int, str]) -> None:
        self.walk = walk
        self.seeds = seeds

    @cached_property
    def _by_site(self) -> dict[int, set[str]]:
        """Names per def site, built on the first message that needs one
        (most schedules have no finding to word)."""
        program = self.walk.program
        by_site = {site: {fluid} for site, fluid in self.seeds.items()}
        for index, instruction in enumerate(program):
            if instruction.opcode is Opcode.INPUT:
                by_site[index] = {fluid_label(instruction)}
        for access in self.walk.accesses:
            instruction = program[access.index]
            if access.kind is AccessKind.READ_FEED and instruction.opcode in (
                Opcode.MIX,
                Opcode.SEPARATE,
            ):
                fed = _names(by_site, access.before)
                if instruction.opcode is Opcode.SEPARATE:
                    fed.add(fluid_label(instruction))
                by_site[access.index] = fed
        return by_site

    def text(self, content: AbsContent) -> str:
        return ", ".join(sorted(_names(self._by_site, content)))


def _names(by_site: Mapping[int, set[str]], content: AbsContent) -> set[str]:
    return {name for site in content.defs for name in by_site.get(site, ())}


class _Routes:
    """Route checks.  Each transfer's route is looked up before the walk;
    the walk's live pre-state is read only at the transfers whose verdict
    depends on it: one with no route (an ``output`` from an empty location
    moves nothing and is not routed) and an unguarded one whose route
    passes a component.  On a bus every route passes only the junction,
    so a listing whose transfers all have a route needs no observer."""

    def __init__(
        self,
        program: AISProgram,
        spec: MachineSpec,
        topology: ChannelTopology,
    ) -> None:
        self.topology = topology
        self.unroutable: list[Diagnostic] = []
        #: (index, src, dst, base, content) per occupied location passed.
        self.through: list[tuple[int, str, str, str, AbsContent]] = []
        #: index -> (opcode, src, dst, components passed or None when
        #: there is no route), for the transfers checked on the pre-state.
        self.watch: dict[
            int, tuple[Opcode, str, str, frozenset[str] | None]
        ] = {}
        #: per (src, dst) operand pair, keyed by the operands' identity
        #: (codegen names each location with one Operand, and the program
        #: holds every operand): their texts and the components passed.
        routes: dict[tuple[int, int], tuple[str, str, frozenset[str] | None]] = {}
        for index, instruction in enumerate(program.instructions):
            if instruction.opcode not in _TRANSFERS:
                continue
            key = (id(instruction.src), id(instruction.dst))
            route = routes.get(key)
            if route is None:
                src, dst = str(instruction.src), str(instruction.dst)
                route = routes[key] = (src, dst, self._passed(spec, src, dst))
            through = route[2]
            if through is None or (
                through and instruction.meta.get("guard") is None
            ):
                self.watch[index] = (instruction.opcode, *route)

    def _passed(
        self, spec: MachineSpec, src: str, dst: str
    ) -> frozenset[str] | None:
        """The components a ``src -> dst`` route passes on the way (a bus
        junction holds nothing); None when there is no route."""
        try:
            path = self.topology.route(src, dst)
        except ComponentError:
            return None
        return frozenset(node for node in path[1:-1] if spec.component_kind(node))

    def observe(self, index: int, state: AbstractState) -> None:
        watched = self.watch.get(index)
        if watched is None:
            return
        opcode, src, dst, through = watched
        if opcode is Opcode.OUTPUT and state.get(src).kind in _EMPTY:
            return
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
        for location, content in state.items():
            base = location.partition(".")[0]
            if base in through and content.kind is ContentKind.HOLDS:
                self.through.append((index, src, dst, base, content))

    def findings(self, names: _FluidNames) -> list[Diagnostic]:
        through = [
            Diagnostic(
                Severity.WARNING,
                "SCHED-ROUTE-THROUGH",
                f"transfer {src!r} -> {dst!r} routes through {base!r}, "
                f"which holds {names.text(content)}",
                instruction=index,
                operand=base,
            )
            for index, src, dst, base, content in self.through
        ]
        return self.unroutable + through


def _occupancy_findings(
    walk: ForwardAnalysis, names: _FluidNames
) -> list[Diagnostic]:
    """DRY-PUMP, PORT-CLASH and DOUBLE-BOOK over the walk's accesses."""
    program = walk.program.instructions
    findings: list[Diagnostic] = []

    def emit(code: str, message: str, index: int, operand: str) -> None:
        findings.append(
            Diagnostic(
                Severity.ERROR, code, message, instruction=index, operand=operand
            )
        )

    port_fluid: dict[str, str] = {}
    source = AbsContent.empty()
    for access in walk.accesses:
        instruction = program[access.index]
        op = instruction.opcode
        place, before = access.place, access.before
        if access.is_read:
            source = before  # a move's deposit follows the read of its source
            if op is Opcode.INPUT:
                fluid = fluid_label(instruction)
                seen = port_fluid.setdefault(place.text, fluid)
                if seen != fluid and not access.guarded:
                    emit(
                        "SCHED-PORT-CLASH",
                        f"input port {place.text!r} sources {fluid!r} after "
                        f"already sourcing {seen!r}",
                        access.index,
                        place.text,
                    )
            elif (
                op is not Opcode.OUTPUT
                and not access.guarded
                and before.kind in _EMPTY
                and place.kind != "input-port"
            ):
                emit(
                    "SCHED-DRY-PUMP",
                    f"move from {place.text!r}, which holds nothing"
                    if op in (Opcode.MOVE, Opcode.MOVE_ABS)
                    else f"{op.value} on empty unit {place.text!r}",
                    access.index,
                    place.text,
                )
            continue
        if access.guarded or before.kind is not ContentKind.HOLDS:
            continue
        if op is Opcode.INPUT:
            what = "input into"
        elif op is Opcode.SEPARATE:
            if place.sub != "out1":
                continue
            what = "separation deposits into"
        elif source.kind is ContentKind.HOLDS and (
            before.product or place.kind == "reservoir"
        ):
            what = "move into"
        else:
            continue
        emit(
            "SCHED-DOUBLE-BOOK",
            f"{what} {place.text!r} while it still holds {names.text(before)}",
            access.index,
            place.text,
        )
    return findings


def _slot_overlaps(
    program: AISProgram, topology: ChannelTopology, slots: Sequence[int]
) -> list[Diagnostic]:
    findings: list[Diagnostic] = []
    transfers: dict[int, list[tuple[int, str, str]]] = {}
    for index, instruction in enumerate(program.instructions):
        if instruction.opcode not in _TRANSFERS:
            continue
        if index >= len(slots):
            break
        src, dst = str(instruction.src), str(instruction.dst)
        transfers.setdefault(slots[index], []).append((index, src, dst))
    for slot, group in sorted(transfers.items()):
        for position, (index_a, src_a, dst_a) in enumerate(group):
            for index_b, src_b, dst_b in group[position + 1:]:
                # a chained pair (one's destination is the other's
                # source) is a deliberate hand-off: sharing that
                # endpoint is the point, so only deeper contention
                # counts against it.
                chained = dst_a == src_b or dst_b == src_a
                try:
                    conflict = topology.conflicts(
                        (src_a, dst_a),
                        (src_b, dst_b),
                        allow_shared_endpoint=chained,
                    )
                except ComponentError:
                    continue  # unroutable: already reported
                if conflict:
                    findings.append(
                        Diagnostic(
                            Severity.ERROR,
                            "SCHED-ROUTE-OVERLAP",
                            f"slot {slot}: transfers {src_a!r}->{dst_a!r} "
                            f"(instr {index_a}) and {src_b!r}->{dst_b!r} "
                            f"(instr {index_b}) contend for a shared "
                            "channel",
                            instruction=index_b,
                            operand=dst_b,
                        )
                    )
    return findings


def certify_schedule(
    program: AISProgram,
    spec: MachineSpec,
    *,
    topology: ChannelTopology | None = None,
    initial: Mapping[str, str] | None = None,
    slots: Sequence[int] | None = None,
) -> list[Diagnostic]:
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
        The findings in program order, then any slot contention.
    """
    initial = initial or {}
    # seed k's def site is -1 - k: seeds precede every instruction.
    sites = {location: -1 - k for k, location in enumerate(initial)}
    routes = _Routes(program, spec, topology) if topology is not None else None
    walk = ForwardAnalysis(
        program,
        spec,
        initial={
            location: AbsContent.holding(
                VolumeInterval(), frozenset({site}), product=True
            )
            for location, site in sites.items()
        },
        observe=routes.observe if routes is not None and routes.watch else None,
    )
    names = _FluidNames(
        walk, {sites[location]: fluid for location, fluid in initial.items()}
    )
    findings = _occupancy_findings(walk, names)
    if routes is not None:
        findings += routes.findings(names)
    findings.sort(key=lambda d: (d.instruction, _RANK[d.code]))
    if slots is not None and topology is not None:
        findings += _slot_overlaps(program, topology, slots)
    return findings
