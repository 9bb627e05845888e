"""The check registry: linear-resource safety rules over AIS programs.

Each check consumes the facts a single :class:`ForwardAnalysis` pass
computed (accesses, value flow) and yields structured
:class:`Diagnostic`\\ s with **stable codes** (catalogued with minimal
failing examples in ``docs/ANALYSIS.md``):

==========================  ========  =====================================
code                        severity  meaning
==========================  ========  =====================================
``use-after-consume``       error     dispensing from a location whose
                                      contents were fully moved out
``read-before-fill``        error*    reading a location that never held
                                      fluid (*warning for ``output``)
``double-fill``             error     ``input`` into a non-empty location
``dead-fluid``              warning   a produced fluid never transitively
                                      reaches a product ``output``/``sense``
``static-overflow``         error*    statically-known volumes exceed the
                                      location capacity (*warning for
                                      ``input``, which the hardware clamps)
``static-underflow``        error     a metered volume below the least count
``insufficient-volume``     error     a metered draw larger than its source
                                      can possibly hold
``storage-less-misuse``     error     separator sub-port protocol violation
                                      (outlet read before/after its
                                      ``separate``, well dispensed/loaded
                                      wrongly)
``dry-wet-clash``           error     a dry register named like a wet
                                      component, or used as a wet operand
``unknown-operand``         error     a wet operand addressing nothing on
                                      the machine
``port-misuse``             error     a port operand in the wrong position
``unit-kind-mismatch``      error     an operation on the wrong kind of
                                      functional unit (or unsupported mode)
==========================  ========  =====================================

New checks subclass :class:`Check` and register with :func:`register`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterator, Sequence

from ..compiler.diagnostics import Diagnostic, Severity
from ..ir.instructions import Instruction, Opcode
from ..ir.program import AISProgram
from ..machine.spec import AQUACORE_SPEC, MachineSpec
from .dataflow import Access, AccessKind, ForwardAnalysis, is_waste_output
from .state import ContentKind

__all__ = [
    "AnalysisContext",
    "Check",
    "register",
    "all_checks",
    "check_codes",
    "analyze",
]

#: read kinds that dispense fluid (destructive or metered use).
_DISPENSING_READS = (
    AccessKind.READ_METERED,
    AccessKind.READ_DRAIN,
    AccessKind.READ_FEED,
)


@dataclass
class AnalysisContext:
    """Everything a check may look at."""

    program: AISProgram
    spec: MachineSpec
    forward: ForwardAnalysis
    #: names that live in the dry register file (dry-op registers and
    #: operands, sense result variables).
    dry_names: dict[str, int] = field(default_factory=dict)

    def instruction(self, index: int) -> Instruction:
        return self.program[index]

    def describe(self, index: int) -> str:
        return self.program[index].render()

    def producer_label(self, index: int) -> str:
        return self.forward.flow.producers.get(index, f"instruction {index}")


class Check:
    """One safety rule.  Subclasses set ``name``/``codes`` and implement
    :meth:`run`."""

    name: str = ""
    codes: Sequence[str] = ()
    description: str = ""

    def run(self, ctx: AnalysisContext) -> Iterator[Diagnostic]:
        raise NotImplementedError

    def diagnostic(
        self,
        severity: Severity,
        code: str,
        message: str,
        *,
        instruction: int | None = None,
        operand: str | None = None,
    ) -> Diagnostic:
        assert code in self.codes, f"{self.name} emitted unregistered {code}"
        return Diagnostic(
            severity, code, message, instruction=instruction, operand=operand
        )


_REGISTRY: list[type[Check]] = []


def register(check_class: type[Check]) -> type[Check]:
    _REGISTRY.append(check_class)
    return check_class


def all_checks() -> list[Check]:
    return [check_class() for check_class in _REGISTRY]


def check_codes() -> dict[str, str]:
    """code -> owning check name, for documentation and tooling."""
    return {
        code: check_class.name
        for check_class in _REGISTRY
        for code in check_class.codes
    }


# ---------------------------------------------------------------------------
@register
class UseAfterConsumeCheck(Check):
    """The linear-type violation: fluid uses are destructive, so a location
    whose contents were fully moved out has nothing left to dispense."""

    name = "use-after-consume"
    codes = ("use-after-consume", "read-before-fill")
    description = (
        "reads of locations that are consumed (contents fully moved out) "
        "or that never held fluid"
    )

    def run(self, ctx: AnalysisContext) -> Iterator[Diagnostic]:
        for access in ctx.forward.accesses:
            if not access.is_read or access.guarded:
                continue
            place = access.place
            if not place.holds_fluid or place.is_subport:
                continue  # ports/unknown names and sub-ports have own checks
            if access.kind is AccessKind.READ_OUTPUT and is_waste_output(
                ctx.instruction(access.index)
            ):
                # codegen's housekeeping: flushing residue/excess drains a
                # location that may well be empty already — by design.
                continue
            what = ctx.describe(access.index)
            if access.before.kind is ContentKind.CONSUMED:
                origin = ""
                if access.before.defs:
                    first = min(access.before.defs)
                    origin = f" (was {ctx.producer_label(first)})"
                yield self.diagnostic(
                    Severity.ERROR,
                    "use-after-consume",
                    f"`{what}` reads {place.text}, whose contents were "
                    f"already fully moved out{origin}",
                    instruction=access.index,
                    operand=place.text,
                )
            elif access.before.kind is ContentKind.EMPTY:
                severity = (
                    Severity.WARNING
                    if access.kind is AccessKind.READ_OUTPUT
                    else Severity.ERROR
                )
                yield self.diagnostic(
                    severity,
                    "read-before-fill",
                    f"`{what}` reads {place.text}, which never held fluid",
                    instruction=access.index,
                    operand=place.text,
                )


@register
class DoubleFillCheck(Check):
    """``input`` into an occupied location: the fresh draw would land on
    top of live contents, silently contaminating the mixture."""

    name = "double-fill"
    codes = ("double-fill",)
    description = "input instructions targeting a location that still holds fluid"

    def run(self, ctx: AnalysisContext) -> Iterator[Diagnostic]:
        for access in ctx.forward.accesses:
            if access.kind is not AccessKind.WRITE_FILL or access.guarded:
                continue
            if not access.place.holds_fluid:
                continue
            if access.before.kind is ContentKind.HOLDS:
                yield self.diagnostic(
                    Severity.ERROR,
                    "double-fill",
                    f"`{ctx.describe(access.index)}` loads into "
                    f"{access.place.text}, which still holds fluid",
                    instruction=access.index,
                    operand=access.place.text,
                )


@register
class DeadFluidCheck(Check):
    """A fluid value (input load, mix result, separation effluent) that
    never transitively reaches a product ``output`` or a ``sense`` was
    metered, loaded, and moved for nothing."""

    name = "dead-fluid"
    codes = ("dead-fluid",)
    description = "produced fluids that never reach a product output or sense"

    def run(self, ctx: AnalysisContext) -> Iterator[Diagnostic]:
        flow = ctx.forward.flow
        if not flow.product_sinks:
            # A program that delivers nothing off-chip leaves its result
            # parked on the machine; reachability is meaningless then.
            return
        for index in sorted(flow.producers):
            if not flow.reaches_product(index):
                yield self.diagnostic(
                    Severity.WARNING,
                    "dead-fluid",
                    f"{ctx.producer_label(index)} never reaches an output "
                    "or sense; the fluid is loaded and moved for nothing",
                    instruction=index,
                )


@register
class StaticVolumeCheck(Check):
    """Interval-propagated volumes against the machine's max-capacity and
    least-count limits — before ever invoking the LP.  Only *definite*
    violations fire: the lower volume bound alone must break the limit."""

    name = "static-volume"
    codes = ("static-overflow", "static-underflow", "insufficient-volume")
    description = (
        "statically-known volumes violating capacity or least-count limits"
    )

    def run(self, ctx: AnalysisContext) -> Iterator[Diagnostic]:
        # the walk counts volumes in least counts; messages print nl
        nl = ctx.forward.nl
        for access in ctx.forward.accesses:
            place = access.place
            moved = access.moved
            if moved is None:
                continue
            what = ctx.describe(access.index)
            if (
                access.kind is AccessKind.READ_METERED
                and place.holds_fluid
                and moved.is_exact
            ):
                if moved.lo < 1:
                    yield self.diagnostic(
                        Severity.ERROR,
                        "static-underflow",
                        f"`{what}` meters {float(nl(moved.lo)):g} nl, below "
                        f"the least count of {float(nl(1)):g} nl",
                        instruction=access.index,
                        operand=place.text,
                    )
                elif (
                    access.before.volume.hi is not None
                    and moved.lo > access.before.volume.hi
                ):
                    yield self.diagnostic(
                        Severity.ERROR,
                        "insufficient-volume",
                        f"`{what}` draws {float(nl(moved.lo)):g} nl but "
                        f"{place.text} can hold at most "
                        f"{float(nl(access.before.volume.hi)):g} nl here",
                        instruction=access.index,
                        operand=place.text,
                    )
            if access.kind in (
                AccessKind.WRITE_DEPOSIT,
                AccessKind.WRITE_FILL,
                AccessKind.WRITE_PRODUCE,
            ) and place.holds_fluid and place.capacity is not None:
                if place.kind == "sensor":
                    resulting = moved.lo  # flow cell: previous sample flushed
                else:
                    resulting = access.before.volume.lo + moved.lo
                if resulting > place.capacity:
                    severity = (
                        Severity.WARNING
                        if access.kind is AccessKind.WRITE_FILL
                        else Severity.ERROR
                    )
                    clamp = (
                        "; the input port clamps to free space"
                        if access.kind is AccessKind.WRITE_FILL
                        else ""
                    )
                    yield self.diagnostic(
                        severity,
                        "static-overflow",
                        f"`{what}` brings {place.text} to at least "
                        f"{float(nl(resulting)):g} nl, over its capacity of "
                        f"{float(nl(place.capacity)):g} nl{clamp}",
                        instruction=access.index,
                        operand=place.text,
                    )


@register
class StorageLessCheck(Check):
    """Separator sub-ports are the storage-less operands: ``out1``/``out2``
    exist only between their producing ``separate`` and the single read
    that drains them; ``matrix``/``pusher`` are load-only consumables."""

    name = "storage-less-misuse"
    codes = ("storage-less-misuse",)
    description = "separator sub-port protocol violations"

    def run(self, ctx: AnalysisContext) -> Iterator[Diagnostic]:
        for access in ctx.forward.accesses:
            place = access.place
            if not place.is_subport or not place.is_valid or access.guarded:
                continue
            if access.kind is AccessKind.READ_OUTPUT and is_waste_output(
                ctx.instruction(access.index)
            ):
                continue  # discarding a spent outlet is housekeeping
            what = ctx.describe(access.index)
            if place.sub in ("out1", "out2"):
                if access.is_read:
                    if access.before.kind is ContentKind.EMPTY:
                        yield self.diagnostic(
                            Severity.ERROR,
                            "storage-less-misuse",
                            f"`{what}` reads {place.text} before any "
                            f"separate has produced it",
                            instruction=access.index,
                            operand=place.text,
                        )
                    elif access.before.kind is ContentKind.CONSUMED:
                        yield self.diagnostic(
                            Severity.ERROR,
                            "storage-less-misuse",
                            f"`{what}` reads {place.text} a second time; "
                            "the outlet was already drained",
                            instruction=access.index,
                            operand=place.text,
                        )
                elif access.kind is AccessKind.WRITE_DEPOSIT:
                    yield self.diagnostic(
                        Severity.ERROR,
                        "storage-less-misuse",
                        f"`{what}` loads into {place.text}; outlet wells "
                        "are produced by separate, not loaded",
                        instruction=access.index,
                        operand=place.text,
                    )
            elif place.sub in ("matrix", "pusher") and access.is_read:
                yield self.diagnostic(
                    Severity.ERROR,
                    "storage-less-misuse",
                    f"`{what}` dispenses from {place.text}; the "
                    f"{place.sub} well is consumed by separate and cannot "
                    "be read",
                    instruction=access.index,
                    operand=place.text,
                )


def _wet_operands(instruction: Instruction):
    if instruction.dst is not None:
        yield "dst", instruction.dst
    if instruction.src is not None:
        yield "src", instruction.src


@register
class DryWetClashCheck(Check):
    """Dry registers and wet locations live in different register files;
    a name crossing over is always a programming error."""

    name = "dry-wet-clash"
    codes = ("dry-wet-clash",)
    description = "dry registers used as wet operands, or vice versa"

    def run(self, ctx: AnalysisContext) -> Iterator[Diagnostic]:
        for index, instruction in enumerate(ctx.program):
            what = instruction.render()
            if not instruction.is_wet:
                for role, name in (
                    ("register", instruction.reg),
                    ("operand", instruction.value),
                ):
                    if (
                        isinstance(name, str)
                        and ctx.spec.component_kind(name) is not None
                    ):
                        yield self.diagnostic(
                            Severity.ERROR,
                            "dry-wet-clash",
                            f"`{what}` uses wet component {name!r} as a "
                            f"dry {role}",
                            instruction=index,
                            operand=name,
                        )
                continue
            if (
                instruction.opcode is Opcode.SENSE
                and instruction.result is not None
                and ctx.spec.component_kind(instruction.result) is not None
            ):
                yield self.diagnostic(
                    Severity.ERROR,
                    "dry-wet-clash",
                    f"`{what}` stores its reading into {instruction.result!r}, "
                    "which names a wet component",
                    instruction=index,
                    operand=instruction.result,
                )
            for _, operand in _wet_operands(instruction):
                if (
                    ctx.spec.component_kind(operand.base) is None
                    and operand.base in ctx.dry_names
                ):
                    yield self.diagnostic(
                        Severity.ERROR,
                        "dry-wet-clash",
                        f"`{what}` uses dry register {operand.base!r} as a "
                        "wet operand",
                        instruction=index,
                        operand=str(operand),
                    )


@register
class OperandCheck(Check):
    """Structural operand sanity: every wet operand must address a real
    location, ports must appear in the right positions, and operations
    must target the right kind of functional unit."""

    name = "operands"
    codes = ("unknown-operand", "port-misuse", "unit-kind-mismatch")
    description = "unknown names, misplaced ports, wrong unit kinds"

    _UNIT_FOR_OP = {
        Opcode.MIX: "mixer",
        Opcode.INCUBATE: "heater",
        Opcode.CONCENTRATE: "heater",
        Opcode.SEPARATE: "separator",
        Opcode.SENSE: "sensor",
    }

    def run(self, ctx: AnalysisContext) -> Iterator[Diagnostic]:
        seen: set[tuple] = set()
        for index, instruction in enumerate(ctx.program):
            if not instruction.is_wet:
                continue
            what = instruction.render()
            for role, operand in _wet_operands(instruction):
                place = ctx.forward.place(operand)
                if place.kind is None:
                    if operand.base in ctx.dry_names:
                        continue  # reported as dry-wet-clash
                    key = ("unknown", str(operand))
                    if key in seen:
                        continue
                    seen.add(key)
                    yield self.diagnostic(
                        Severity.ERROR,
                        "unknown-operand",
                        f"`{what}`: {operand} addresses nothing on machine "
                        f"{ctx.spec.name!r}",
                        instruction=index,
                        operand=str(operand),
                    )
                    continue
                if not place.is_valid:
                    yield self.diagnostic(
                        Severity.ERROR,
                        "unknown-operand",
                        f"`{what}`: {place.base!r} (a {place.kind}) has no "
                        f"sub-port {place.sub!r}",
                        instruction=index,
                        operand=str(operand),
                    )
                    continue
                yield from self._port_position(
                    ctx, index, instruction, role, place, what
                )
            yield from self._unit_kind(ctx, index, instruction, what)

    def _port_position(self, ctx, index, instruction, role, place, what):
        op = instruction.opcode
        is_input_port = place.kind == "input-port"
        is_output_port = place.kind == "output-port"
        bad = None
        if op is Opcode.INPUT:
            if role == "src" and not is_input_port:
                bad = "input draws from an input port"
            elif role == "dst" and (is_input_port or is_output_port):
                bad = "input cannot load into a port"
        elif op is Opcode.OUTPUT:
            if role == "dst" and not is_output_port:
                bad = "output sends to an output port"
            elif role == "src" and (is_input_port or is_output_port):
                bad = "output drains an on-chip location, not a port"
        elif is_input_port or is_output_port:
            bad = f"{op.value} cannot address a port; use input/output"
        if bad is not None:
            yield self.diagnostic(
                Severity.ERROR,
                "port-misuse",
                f"`{what}`: {place.text} — {bad}",
                instruction=index,
                operand=place.text,
            )

    def _unit_kind(self, ctx, index, instruction, what):
        wanted = self._UNIT_FOR_OP.get(instruction.opcode)
        if wanted is None or instruction.dst is None:
            return
        place = ctx.forward.place(instruction.dst)
        if place.kind is None or place.is_subport:
            return
        if place.kind != wanted:
            yield self.diagnostic(
                Severity.ERROR,
                "unit-kind-mismatch",
                f"`{what}` targets {place.text}, a {place.kind}; "
                f"{instruction.opcode.value} needs a {wanted}",
                instruction=index,
                operand=place.text,
            )
            return
        if instruction.mode is not None:
            unit = ctx.spec.unit(place.base)
            supported = (
                unit.modes if wanted == "separator" else unit.senses
            )
            if supported and instruction.mode not in supported:
                yield self.diagnostic(
                    Severity.ERROR,
                    "unit-kind-mismatch",
                    f"`{what}`: {place.text} does not implement "
                    f"{instruction.opcode.value}.{instruction.mode} "
                    f"(supports {', '.join(supported)})",
                    instruction=index,
                    operand=place.text,
                )


# ---------------------------------------------------------------------------
def _collect_dry_names(program: AISProgram) -> dict[str, int]:
    names: dict[str, int] = {}
    for index, instruction in enumerate(program):
        if not instruction.is_wet:
            if instruction.reg:
                names.setdefault(instruction.reg, index)
            if isinstance(instruction.value, str):
                names.setdefault(instruction.value, index)
        elif instruction.opcode is Opcode.SENSE and instruction.result:
            names.setdefault(instruction.result, index)
    return names


_SEVERITY_ORDER = {Severity.ERROR: 0, Severity.WARNING: 1, Severity.NOTE: 2}


def analyze(
    program: AISProgram,
    spec: MachineSpec = AQUACORE_SPEC,
    *,
    checks: Sequence[Check] | None = None,
) -> list[Diagnostic]:
    """Run the fluid-safety analyzer; the library entry point.

    Returns diagnostics sorted by program position (then severity), so
    output is stable and reads like a compiler's.
    """
    forward = ForwardAnalysis(program, spec)
    ctx = AnalysisContext(
        program=program,
        spec=spec,
        forward=forward,
        dry_names=_collect_dry_names(program),
    )
    findings: list[Diagnostic] = []
    for check in checks if checks is not None else all_checks():
        findings.extend(check.run(ctx))
    findings.sort(
        key=lambda d: (
            d.instruction if d.instruction is not None else len(program),
            _SEVERITY_ORDER[d.severity],
            d.code,
        )
    )
    return findings
