"""Assay execution: plan resolution, guards, and regeneration fallback.

:class:`AssayExecutor` runs a
:class:`~repro.compiler.passes.context.CompiledAssay` on a
:class:`~repro.machine.Machine`:

* **static assays** resolve every metered move through the rounded
  compile-time :class:`~repro.core.dagsolve.VolumeAssignment`
  (:class:`PlanResolver`);
* **assays with unknown volumes** resolve per partition
  (:class:`RuntimeResolver`): when the first move of a partition executes,
  the partition is dispensed on the spot from its precomputed Vnorms and
  the measurements recorded so far — the Section 3.5 protocol;
* statements under a dynamic IF guard are skipped unless their branch is
  the one the sensed condition selected;
* a move that finds its source exhausted triggers **regeneration**: the
  backward slice of that location is re-executed (paper Section 1), the
  trigger is counted, and the move retries.

Recovery is *bounded* by a :class:`RetryPolicy`: per-instruction
regeneration attempts, per-location regeneration counts, transient
transport retries, and (optionally) a global regeneration budget in extra
input volume.  When a bound is hit the executor raises
:class:`~repro.machine.errors.RegenerationExhausted` naming the failing
node — or, with ``capture_failures=True``, degrades gracefully into a
structured :attr:`ExecutionResult.failure_report` instead of an exception
(the mode the ``repro stress`` harness runs in).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

from ..compiler.passes.context import CompiledAssay
from ..core.errors import PartitionError, VolumeError
from ..core.limits import as_fraction
from ..core.runtime_assign import RuntimeSession
from ..ir.instructions import Instruction, Opcode
from ..ir.slicing import SliceIndex
from ..lang.ast import BinOp, Compare, Expr, Index, Name, Num
from ..machine.errors import (
    EmptyError,
    MachineError,
    RegenerationExhausted,
    TransportError,
)
from ..machine.faults import FaultInjector
from ..machine.fluids import Mixture
from ..machine.interpreter import Machine
from ..machine.trace import ExecutionTrace, RecoveryEvent
from .measurement import MeasurementLog

__all__ = [
    "PlanResolver",
    "RuntimeResolver",
    "AssayExecutor",
    "ExecutionResult",
    "RetryPolicy",
    "FailureReport",
]


class PlanResolver:
    """Static case: volumes straight from the rounded assignment."""

    def __init__(self, assignment) -> None:
        self.assignment = assignment

    def __call__(self, instruction: Instruction) -> Fraction | None:
        if instruction.edge is not None:
            return self.assignment.edge_volume.get(instruction.edge)
        if (
            instruction.opcode is Opcode.INPUT
            and "node" in instruction.meta
        ):
            return self.assignment.node_volume.get(instruction.meta["node"])
        return None


class RuntimeResolver:
    """Statically-unknown case: dispense each partition on first touch."""

    def __init__(self, compiled: CompiledAssay) -> None:
        if compiled.planner is None:
            raise PartitionError("assay has no runtime planner")
        self.planner = compiled.planner
        self.session: RuntimeSession = self.planner.session()
        partitioned = self.planner.partitioned
        #: original node id -> partition index
        self.partition_of: dict[str, int] = {}
        #: (source, consumer-partition) -> constrained stub id
        self.stub_of: dict[tuple[str, int], str] = {}
        for partition in partitioned.partitions:
            for member in partition.members:
                self.partition_of[member] = partition.index
            for spec in partition.constrained:
                self.stub_of[(spec.source, partition.index)] = spec.node_id

    # ------------------------------------------------------------------
    def record_measurement(self, node_id: str, volume: Fraction) -> None:
        if node_id in self.planner.partitioned.measured_sources:
            self.session.record_measurement(node_id, volume)

    def _assignment_for(self, index: int):
        if index not in self.session.assignments:
            missing = self.session.missing_measurements(index)
            if missing:
                raise PartitionError(
                    f"partition {index} dispensed before measurements "
                    f"{missing} exist; program order violates epochs"
                )
            self.session.assign(index)
        return self.session.assignments[index]

    def __call__(self, instruction: Instruction) -> Fraction | None:
        if instruction.edge is not None:
            src, dst = instruction.edge
            index = self.partition_of.get(dst)
            if index is None:
                raise PartitionError(f"node {dst!r} not in any partition")
            assignment = self._assignment_for(index)
            key = (src, dst)
            if key not in assignment.edge_volume:
                stub = self.stub_of.get((src, index))
                if stub is None:
                    raise PartitionError(
                        f"edge {src}->{dst} absent from partition {index}"
                    )
                key = (stub, dst)
            return assignment.limits.quantize(assignment.edge_volume[key])
        if instruction.opcode is Opcode.INPUT:
            # Inputs load before any measurement exists: fill to capacity
            # (the per-partition plans cap the subsequent draws).
            return None
        return None


@dataclass(frozen=True)
class RetryPolicy:
    """Bounds on the executor's recovery behaviour.

    Attributes:
        max_attempts: regeneration-then-retry rounds per instruction.
        max_transient_retries: transport-failure retries per attempt.
        max_location_regenerations: regenerations of any single location
            before it is declared permanently exhausted.
        max_regenerations: global regeneration cap for the whole run.
        regeneration_budget: cap on the *extra input volume* (nl) drawn
            from ports while re-executing backward slices; ``None`` means
            unbounded.  This is the run-time analogue of the paper's
            input-volume cost of regeneration (Table 2).
    """

    max_attempts: int = 8
    max_transient_retries: int = 4
    max_location_regenerations: int = 64
    max_regenerations: int = 10_000
    regeneration_budget: Fraction | None = None


@dataclass(frozen=True)
class FailureReport:
    """Structured description of an execution that could not complete."""

    instruction_index: int
    instruction: str
    error_kind: str                 # exception class name
    message: str
    location: str | None = None  # failing node/component, when known
    regenerations: int = 0
    transient_retries: int = 0
    regeneration_volume: Fraction = Fraction(0)
    faults_injected: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "instruction_index": self.instruction_index,
            "instruction": self.instruction,
            "error_kind": self.error_kind,
            "message": self.message,
            "location": self.location,
            "regenerations": self.regenerations,
            "transient_retries": self.transient_retries,
            "regeneration_volume_nl": float(self.regeneration_volume),
            "faults_injected": dict(sorted(self.faults_injected.items())),
        }


@dataclass
class ExecutionResult:
    """What one assay execution produced."""

    machine: Machine
    trace: ExecutionTrace
    results: dict[str, Fraction]
    measurements: MeasurementLog
    regenerations: int = 0
    skipped_guarded: int = 0
    transient_retries: int = 0
    #: extra input volume drawn by regeneration slices (the budgeted cost).
    regeneration_volume: Fraction = Fraction(0)
    #: present iff the run could not complete (capture_failures mode).
    failure_report: FailureReport | None = None

    @property
    def succeeded(self) -> bool:
        return self.failure_report is None

    @property
    def readings(self) -> dict[str, float]:
        return {name: float(value) for name, value in self.results.items()}


class AssayExecutor:
    """Drives a compiled assay to completion on a machine."""

    def __init__(
        self,
        compiled: CompiledAssay,
        machine: Machine | None = None,
        *,
        allow_regeneration: bool = True,
        policy: RetryPolicy | None = None,
        injector: FaultInjector | None = None,
        capture_failures: bool = False,
    ) -> None:
        self.compiled = compiled
        self.machine = machine or Machine(compiled.spec)
        if injector is not None:
            self.machine.install_injector(injector)
        self.measurements = MeasurementLog()
        self.allow_regeneration = allow_regeneration
        self.policy = policy or RetryPolicy()
        self.capture_failures = capture_failures
        self.regenerations = 0
        self.skipped_guarded = 0
        self.transient_retries = 0
        self.regeneration_volume = Fraction(0)
        self._location_regenerations: dict[str, int] = {}
        #: built at a run's first regeneration; the program is fixed
        #: for the run, so every later slice query reuses it.
        self._slices: SliceIndex | None = None
        self._bind_ports()
        if compiled.is_static:
            if compiled.assignment is None:
                raise MachineError(
                    "compiled assay has no volume assignment to execute"
                )
            self.resolver = PlanResolver(compiled.assignment)
        else:
            self.resolver = RuntimeResolver(compiled)

    # ------------------------------------------------------------------
    def _bind_ports(self) -> None:
        bound = set()
        for instruction in self.compiled.program:
            if instruction.opcode is not Opcode.INPUT:
                continue
            port = instruction.src.base
            if port in bound:
                continue
            species = instruction.meta.get("node") or instruction.meta.get("aux")
            if species is None:
                species = instruction.comment or port
            # replicas draw the same underlying species as their original
            base_species = str(species).split(".rep")[0]
            self.machine.bind_port(port, base_species)
            bound.add(port)

    # ------------------------------------------------------------------
    def _guard_allows(self, instruction: Instruction) -> bool:
        guard = instruction.meta.get("guard")
        if guard is None:
            return True
        condition_id, wanted = guard
        flat = self.compiled.flat
        if flat is None or condition_id not in flat.dynamic_condition_exprs:
            return True  # no way to evaluate; run conservatively
        verdict = self._eval_condition(
            flat.dynamic_condition_exprs[condition_id]
        )
        if verdict is None:
            return True
        return bool(verdict) == wanted

    def _eval_condition(self, expression: Expr) -> bool | None:
        value = self._eval_expr(expression)
        return None if value is None else bool(value)

    def _eval_expr(self, expression: Expr):
        if isinstance(expression, Num):
            return expression.value
        if isinstance(expression, Name):
            return self.machine.results.get(expression.ident)
        if isinstance(expression, Index):
            flat_name = expression.base + "".join(
                f"[{self._eval_expr(i)}]" for i in expression.indices
            )
            return self.machine.results.get(flat_name)
        if isinstance(expression, BinOp):
            left = self._eval_expr(expression.left)
            right = self._eval_expr(expression.right)
            if left is None or right is None:
                return None
            return {
                "+": left + right,
                "-": left - right,
                "*": left * right,
                "/": left / right if right else None,
            }[expression.op]
        if isinstance(expression, Compare):
            left = self._eval_expr(expression.left)
            right = self._eval_expr(expression.right)
            if left is None or right is None:
                return None
            return {
                "==": left == right,
                "!=": left != right,
                "<": left < right,
                ">": left > right,
                "<=": left <= right,
                ">=": left >= right,
            }[expression.op]
        return None

    # ------------------------------------------------------------------
    def run(self) -> ExecutionResult:
        program = self.compiled.program
        failure: FailureReport | None = None
        self._slices = None
        for index, instruction in enumerate(program):
            sense_guard = instruction.meta.get("guard")
            if sense_guard is not None and not self._guard_allows(instruction):
                self.skipped_guarded += 1
                continue
            try:
                self._execute_with_regeneration(index, instruction)
            except (MachineError, VolumeError) as error:
                if not self.capture_failures:
                    raise
                failure = self._failure_report(index, instruction, error)
                break
        return ExecutionResult(
            machine=self.machine,
            trace=self.machine.trace,
            results=dict(self.machine.results),
            measurements=self.measurements,
            regenerations=self.regenerations,
            skipped_guarded=self.skipped_guarded,
            transient_retries=self.transient_retries,
            regeneration_volume=self.regeneration_volume,
            failure_report=failure,
        )

    def _failure_report(
        self, index: int, instruction: Instruction, error: Exception
    ) -> FailureReport:
        location = getattr(error, "location", None) or getattr(
            error, "component", None
        )
        injector = self.machine.injector
        return FailureReport(
            instruction_index=index,
            instruction=instruction.render(),
            error_kind=type(error).__name__,
            message=str(error),
            location=location,
            regenerations=self.regenerations,
            transient_retries=self.transient_retries,
            regeneration_volume=self.regeneration_volume,
            faults_injected=dict(injector.injected) if injector else {},
        )

    def _attempt(self, index: int, instruction: Instruction):
        """One machine execution, with bounded transient-failure retries."""
        retries = 0
        while True:
            try:
                return self.machine.execute(
                    instruction, resolver=self.resolver, index=index
                )
            except TransportError as error:
                retries += 1
                self.transient_retries += 1
                if retries > self.policy.max_transient_retries:
                    raise
                self.machine.trace.record_recovery(
                    RecoveryEvent(
                        index=index,
                        action="retry",
                        location=error.component or "",
                        attempts=retries,
                    )
                )

    def _execute_with_regeneration(
        self, index: int, instruction: Instruction
    ) -> None:
        measurement = self._recovering_attempt(index, instruction)
        if measurement is not None and instruction.opcode is Opcode.SEPARATE:
            node_id = instruction.meta.get("node")
            if node_id is not None:
                reported = self.measurements.record(node_id, measurement)
                if isinstance(self.resolver, RuntimeResolver):
                    self.resolver.record_measurement(node_id, reported)

    def _recovering_attempt(self, index: int, instruction: Instruction):
        """Execute one instruction, regenerating exhausted sources.

        The regeneration loop is re-entrant: a slice re-execution whose
        *own* source is exhausted regenerates that source recursively
        (bounded by the policy caps and a cycle guard), so a chain of dry
        intermediate cells recovers instead of giving up at depth one.
        """
        attempts = 0
        while True:
            try:
                return self._attempt(index, instruction)
            except EmptyError as error:
                if not self.allow_regeneration:
                    raise
                attempts += 1
                if attempts > self.policy.max_attempts:
                    raise RegenerationExhausted(
                        f"instruction {index} ({instruction.render()}) still "
                        f"failing after {attempts - 1} regeneration "
                        f"attempts: {error}",
                        location=error.component,
                        attempts=attempts - 1,
                        reason="max-attempts",
                    ) from error
                if self.regenerations >= self.policy.max_regenerations:
                    raise RegenerationExhausted(
                        f"global regeneration cap "
                        f"{self.policy.max_regenerations} reached at "
                        f"instruction {index} ({instruction.render()})",
                        location=error.component,
                        attempts=attempts,
                        reason="max-regenerations",
                    ) from error
                self._regenerate(index, error)

    def _slice_deposit_locations(self, slice_indices) -> set:
        """Locations the slice deposits into via non-clamping transfers.

        ``input`` refills are deliberately excluded: they clamp to the
        destination's free space (a top-up), so they can never stack into
        an overflow — and that top-up is exactly how under-provisioned
        reservoirs recover.
        """
        deposited = set()
        for slice_index in slice_indices:
            instruction = self.compiled.program[slice_index]
            if instruction.opcode in (Opcode.MOVE, Opcode.MOVE_ABS):
                deposited.add(str(instruction.dst))
            elif instruction.opcode is Opcode.SEPARATE:
                base = instruction.dst.base
                deposited.update((f"{base}.out1", f"{base}.out2"))
        return deposited

    def _spill(self, location: str) -> None:
        try:
            component = self.machine.component(location)
        except MachineError:
            return
        residual = component.discard()
        if residual > 0:
            self.machine.waste_tally += residual

    def _regenerate(self, index: int, error: EmptyError) -> None:
        """Re-execute the backward slice producing the exhausted location.

        Bounded and diagnosed: a location that keeps exhausting beyond the
        policy's per-location cap, an input port whose finite supply is
        spent, or a budget overrun all raise
        :class:`RegenerationExhausted` naming the failing node instead of
        looping.
        """
        location = error.component
        if location is None:
            raise RegenerationExhausted(
                f"cannot regenerate: {error}", reason="unknown-location"
            ) from error
        if location in self.machine.ports:
            # Regeneration re-executes on-chip producers; it cannot mint
            # new off-chip input fluid.
            raise RegenerationExhausted(
                f"input port {location!r} supply exhausted: {error}",
                location=location,
                attempts=self._location_regenerations.get(location, 0),
                reason="source-exhausted",
            ) from error
        count = self._location_regenerations.get(location, 0) + 1
        self._location_regenerations[location] = count
        if count > self.policy.max_location_regenerations:
            raise RegenerationExhausted(
                f"{location!r} exhausted again after "
                f"{count - 1} regenerations; giving up",
                location=location,
                attempts=count - 1,
                reason="location-cap",
            ) from error
        if self._slices is None:
            self._slices = SliceIndex(self.compiled.program.instructions)
        slice_indices = self._slices.slice_for_location(location, index)
        if not slice_indices:
            raise RegenerationExhausted(
                f"no producing slice found for {location!r}; cannot "
                "regenerate",
                location=location,
                attempts=count,
                reason="no-slice",
            ) from error
        drawn_before = self.machine.input_drawn
        volume_before = self.regeneration_volume
        self.regenerations += 1
        self.machine.trace.regeneration_count += 1
        deposited = self._slice_deposit_locations(slice_indices)
        if location in deposited:
            # The slice re-deposits the target's contents from scratch at
            # full planned volumes, so any under-filled residue (a
            # dispense shortfall, say) must be spilled first or the
            # refill overflows the cell.  An input-only target keeps its
            # residue and recovers by topping up instead.
            self._spill(location)
        # Every other location the slice deposits into is only *transited*:
        # the slice recreates its historical contents and drains them
        # onward toward the target.  Whatever those cells hold NOW belongs
        # to later definitions that downstream instructions still need —
        # park it aside, run the slice against empty cells (the def-use
        # closure recreates every intermediate it reads), then put it
        # back, spilling any surplus the slice left behind.
        snapshots: dict[str, Mixture] = {}
        for name in sorted(deposited - {location}):
            try:
                component = self.machine.component(name)
            except MachineError:
                continue
            snapshots[name] = component.contents
            component.contents = Mixture.empty()
        try:
            # Recursion terminates: a nested regeneration triggered at
            # slice_index regenerates against the strict prefix
            # program[:slice_index], and every slice index is < `index`.
            for slice_index in slice_indices:
                instruction = self.compiled.program[slice_index]
                if not self._guard_allows(instruction):
                    continue
                self._recovering_attempt(slice_index, instruction)
        finally:
            for name, saved in snapshots.items():
                component = self.machine.component(name)
                surplus = component.discard()
                if surplus > 0:
                    self.machine.waste_tally += surplus
                component.contents = saved
        # Extra input attributable to THIS regeneration: total new draws
        # minus what nested regenerations already booked.
        nested = self.regeneration_volume - volume_before
        extra = (self.machine.input_drawn - drawn_before) - nested
        self.regeneration_volume += extra
        self.machine.trace.record_recovery(
            RecoveryEvent(
                index=index,
                action="regeneration",
                location=location,
                attempts=count,
                extra_volume=extra,
            )
        )
        budget = self.policy.regeneration_budget
        if budget is not None and self.regeneration_volume > budget:
            raise RegenerationExhausted(
                f"regeneration budget exceeded: "
                f"{float(self.regeneration_volume):.6g} nl of extra input "
                f"drawn against a budget of {float(budget):.6g} nl "
                f"(regenerating {location!r})",
                location=location,
                attempts=count,
                reason="budget",
            )
