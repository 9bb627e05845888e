"""Race classification: MHP pairs x lockset resources -> diagnostics.

Merged mode walks every resource touched by two or more programs and
classifies each cross-program access pair that may happen in parallel:

* both accesses exact and both writes      -> ``RACE-WW`` (definite)
* both exact, one write one read           -> ``RACE-RW`` (definite)
* input port sourcing two different fluids -> ``RACE-PORT`` (definite)
* either access guard-widened or unknown   -> ``RACE-GUARDED`` (possible)

With a :class:`~repro.machine.topology.ChannelTopology`, MHP transfer
pairs whose routes contend raise ``RACE-ROUTE`` and unroutable endpoint
pairs raise ``RACE-UNROUTABLE``.  Route analysis is **opt-in**: on the
AquaCore bus every pair of transfers contends through the backbone (the
wet path is serial by construction), so a topology-free call answers the
re-banking question and a topology-carrying call answers the full
parallel-routing question.

Without shared storage, reservoirs are namespaced per program (a
scheduler may re-bank them), and a ``RACE-BANK`` possible-race note
fires when the summed peak reservoir demand exceeds the machine's bank —
re-banking cannot be collision-free then.

Single mode (one program) reports **schedule-sensitive** pairs instead:
conflicting accesses ordered only by emission order, not by fluid
dataflow (``RACE-ORDER`` / ``RACE-GUARDED`` notes; never errors — the
serial schedule itself is sound).

Diagnostics are deduplicated per (code, resource, program pair): the
first witnessing instruction pair is named and the remaining pair count
is summarized, keeping reports readable on quadratic pair sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

from ...compiler.diagnostics import Diagnostic, Severity
from ...ir.program import AISProgram
from ...machine.errors import ComponentError
from ...machine.spec import MachineSpec
from ...machine.topology import ChannelTopology
from ..dataflow import ForwardAnalysis
from .hb import Barrier, BarrierOrder, DataflowOrder
from .resources import (
    ProgramAccesses,
    ResourceAccess,
    Transfer,
    extract_accesses,
)

__all__ = ["RaceDetector"]

SEVERITIES = {"error": Severity.ERROR, "warning": Severity.WARNING,
              "note": Severity.NOTE}


@dataclass
class _Group:
    """One deduplicated finding: first witness plus the pair count."""

    severity: Severity
    resource: str
    message: str
    instruction: int | None
    count: int = 1


@dataclass
class RaceDetector:
    """One detection run over one or more programs."""

    programs: Sequence[AISProgram]
    spec: MachineSpec
    topology: ChannelTopology | None = None
    barriers: Sequence[Barrier] = ()
    share_storage: bool = False

    findings: list[Diagnostic] = field(default_factory=list, init=False)
    mhp: dict[str, object] = field(default_factory=dict, init=False)
    _groups: dict[tuple, _Group] = field(default_factory=dict, init=False)

    # ------------------------------------------------------------------
    def run(self) -> "RaceDetector":
        if len(self.programs) >= 2:
            self._run_merged()
        else:
            self._run_single()
        self._flush_groups()
        return self

    # ------------------------------------------------------------------
    def _collect(
        self,
        code: str,
        severity: Severity,
        resource: str,
        message: str,
        *,
        key_extra: tuple = (),
        instruction: int | None = None,
    ) -> None:
        key = (code, resource, *key_extra)
        group = self._groups.get(key)
        if group is None:
            self._groups[key] = _Group(severity, resource, message, instruction)
        else:
            group.count += 1

    def _flush_groups(self) -> None:
        for (code, *_rest), group in sorted(
            self._groups.items(), key=lambda item: item[0]
        ):
            message = group.message
            if group.count > 1:
                message += f" (+{group.count - 1} more such pair(s))"
            self.findings.append(
                Diagnostic(
                    group.severity,
                    code,
                    message,
                    instruction=group.instruction,
                    operand=group.resource,
                )
            )

    # ------------------------------------------------------------------
    # merged mode: cross-assay interference
    # ------------------------------------------------------------------
    def _run_merged(self) -> None:
        order = BarrierOrder(self.programs, self.barriers)
        extracted = [
            extract_accesses(
                ForwardAnalysis(program, self.spec),
                program_index=p,
                namespace="" if self.share_storage else f"p{p}:",
            )
            for p, program in enumerate(self.programs)
        ]
        by_resource: dict[str, list[ResourceAccess]] = {}
        for facts in extracted:
            for access in facts.accesses:
                by_resource.setdefault(access.resource, []).append(access)
        shared = 0
        for resource, accesses in sorted(by_resource.items()):
            if len({a.program for a in accesses}) < 2:
                continue
            shared += 1
            self._classify_resource(resource, accesses, order, extracted)
        if self.topology is not None:
            self._check_routes(order, extracted)
        if not self.share_storage:
            self._check_bank(extracted)
        cross, mhp = order.mhp_pair_count()
        self.mhp = {
            "mode": "merged",
            "programs": len(self.programs),
            "wet_instructions": sum(f.wet_count for f in extracted),
            "barriers": len(list(self.barriers)),
            "pairs": cross,
            "mhp_pairs": mhp,
            "shared_resources": shared,
        }

    def _classify_resource(
        self,
        resource: str,
        accesses: list[ResourceAccess],
        order: BarrierOrder,
        extracted: list[ProgramAccesses],
    ) -> None:
        for position, a in enumerate(accesses):
            for b in accesses[position + 1:]:
                if a.program == b.program:
                    continue
                if not (a.write or b.write):
                    continue  # two pure reads never race
                if not order.mhp(a.program, a.index, b.program, b.index):
                    continue
                first, second = (a, b) if a.program < b.program else (b, a)
                self._classify_pair(resource, first, second, extracted)

    def _classify_pair(
        self,
        resource: str,
        a: ResourceAccess,
        b: ResourceAccess,
        extracted: list[ProgramAccesses],
    ) -> None:
        name_a = extracted[a.program].name
        name_b = extracted[b.program].name
        where = (
            f"{name_a!r}@{a.index} and {name_b!r}@{b.index} "
            f"may happen in parallel"
        )
        if a.is_port:
            if a.fluid == b.fluid:
                return  # one port, one fluid: consistent sharing
            if a.exact and b.exact:
                self._collect(
                    "RACE-PORT",
                    Severity.ERROR,
                    resource,
                    f"input port {resource!r} sources {a.fluid!r} and "
                    f"{b.fluid!r}: {where}",
                    key_extra=(a.program, b.program),
                )
            else:
                self._guarded_note(resource, a, b, where)
            return
        if not (a.exact and b.exact):
            self._guarded_note(resource, a, b, where)
            return
        if a.write and b.write:
            self._collect(
                "RACE-WW",
                Severity.ERROR,
                resource,
                f"{resource!r} is mutated by both: {where}",
                key_extra=(a.program, b.program),
            )
        else:
            self._collect(
                "RACE-RW",
                Severity.ERROR,
                resource,
                f"{resource!r} is read and mutated concurrently: {where}",
                key_extra=(a.program, b.program),
            )

    def _guarded_note(
        self, resource: str, a: ResourceAccess, b: ResourceAccess, where: str
    ) -> None:
        self._collect(
            "RACE-GUARDED",
            Severity.NOTE,
            resource,
            f"possible race on {resource!r} (guard-widened access): {where}",
            key_extra=(a.program, b.program),
        )

    # ------------------------------------------------------------------
    def _check_routes(
        self, order: BarrierOrder, extracted: list[ProgramAccesses]
    ) -> None:
        assert self.topology is not None
        routable: list[Transfer] = []
        for facts in extracted:
            for transfer in facts.transfers:
                try:
                    self.topology.route(transfer.src, transfer.dst)
                except ComponentError:
                    self._collect(
                        "RACE-UNROUTABLE",
                        Severity.ERROR,
                        transfer.dst,
                        f"no channel route from {transfer.src!r} to "
                        f"{transfer.dst!r} on topology "
                        f"{self.topology.name!r} "
                        f"({extracted[transfer.program].name!r}"
                        f"@{transfer.index})",
                        key_extra=(transfer.src,),
                        instruction=transfer.index,
                    )
                else:
                    routable.append(transfer)
        for position, a in enumerate(routable):
            for b in routable[position + 1:]:
                if a.program == b.program:
                    continue
                if not order.mhp(a.program, a.index, b.program, b.index):
                    continue
                if self.topology.conflicts((a.src, a.dst), (b.src, b.dst)):
                    first, second = (a, b) if a.program < b.program else (b, a)
                    self._collect(
                        "RACE-ROUTE",
                        Severity.ERROR,
                        second.dst,
                        f"transfers {first.src!r}->{first.dst!r} "
                        f"({extracted[first.program].name!r}@{first.index}) "
                        f"and {second.src!r}->{second.dst!r} "
                        f"({extracted[second.program].name!r}"
                        f"@{second.index}) may happen in parallel and "
                        "contend for a shared channel",
                        key_extra=(first.program, second.program),
                    )

    def _check_bank(self, extracted: list[ProgramAccesses]) -> None:
        demand = sum(facts.reservoir_demand for facts in extracted)
        bank = len(tuple(self.spec.reservoir_names()))
        if demand > bank:
            per_program = ", ".join(
                f"{facts.name!r}: {facts.reservoir_demand}"
                for facts in extracted
            )
            self._collect(
                "RACE-BANK",
                Severity.NOTE,
                "reservoir-bank",
                f"possible race: summed peak reservoir demand {demand} "
                f"exceeds the {bank}-reservoir bank ({per_program}); "
                "re-banking cannot be collision-free",
            )

    # ------------------------------------------------------------------
    # single mode: schedule-sensitive pairs of one serial program
    # ------------------------------------------------------------------
    def _run_single(self) -> None:
        program = self.programs[0]
        analysis = ForwardAnalysis(program, self.spec)
        order = DataflowOrder(program, analysis)
        facts = extract_accesses(analysis)
        if self.topology is not None:
            self._check_single_routes(facts)
        by_resource: dict[str, list[ResourceAccess]] = {}
        for access in facts.accesses:
            by_resource.setdefault(access.resource, []).append(access)
        examined = sensitive = 0
        for resource, accesses in sorted(by_resource.items()):
            for position, a in enumerate(accesses):
                for b in accesses[position + 1:]:
                    if a.index == b.index or not (a.write or b.write):
                        continue
                    examined += 1
                    if order.ordered(a.index, b.index):
                        continue
                    sensitive += 1
                    first, second = (a, b) if a.index < b.index else (b, a)
                    code = (
                        "RACE-ORDER"
                        if first.exact and second.exact
                        else "RACE-GUARDED"
                    )
                    self._collect(
                        code,
                        Severity.NOTE,
                        resource,
                        f"schedule-sensitive: instructions {first.index} "
                        f"and {second.index} both touch {resource!r} but "
                        "are unordered by fluid dataflow; a scheduler "
                        "must keep their order or re-bank",
                        instruction=second.index,
                    )
        self.mhp = {
            "mode": "single",
            "programs": 1,
            "wet_instructions": facts.wet_count,
            "barriers": 0,
            "pairs": examined,
            "mhp_pairs": sensitive,
            "shared_resources": len(by_resource),
        }

    def _check_single_routes(self, facts: ProgramAccesses) -> None:
        assert self.topology is not None
        for transfer in facts.transfers:
            if not self.topology.is_routable(transfer.src, transfer.dst):
                self._collect(
                    "RACE-UNROUTABLE",
                    Severity.ERROR,
                    transfer.dst,
                    f"no channel route from {transfer.src!r} to "
                    f"{transfer.dst!r} on topology {self.topology.name!r} "
                    f"(@{transfer.index})",
                    key_extra=(transfer.src,),
                    instruction=transfer.index,
                )
