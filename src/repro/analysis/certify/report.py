"""Certificate assembly: the ``certify()`` / ``certify_program()`` API.

``certify(compiled)`` runs both halves over a compiler result — plan
certification against the final DAG and schedule interference over the
emitted program — and packages the findings as the shared
:class:`~repro.analysis.report.AnalysisReport` (verdict ``certified``,
which PLAN-DEFERRED and other notes keep).  ``certify_program`` covers
bare AIS listings (no plan to validate, schedule half only).

The compiled assay is accessed duck-typed (``final_dag``, ``assignment``,
``program``, ``spec``, ``allocation``, ``plan``, ``planner``) so this
package never imports the compiler pipeline or the solver stack it
audits.
"""

from __future__ import annotations

from fractions import Fraction
from collections.abc import Sequence

from ...compiler.diagnostics import (
    EXIT_CLEAN,
    EXIT_ERRORS,
    EXIT_WARNINGS,
    Diagnostic,
)
from ...core.dag import NodeKind
from ...ir.program import AISProgram
from ...machine.spec import AQUACORE_SPEC, MachineSpec
from ...machine.topology import ChannelTopology, bus_topology
from ..report import AnalysisReport
from .codes import PLAN_CODES
from .plan import certify_plan
from .schedule import certify_schedule

__all__ = [
    "certify",
    "certify_program",
    "EXIT_CLEAN",
    "EXIT_WARNINGS",
    "EXIT_ERRORS",
]


def _certificate(
    program: str,
    machine: str,
    findings: list[Diagnostic],
    *,
    plan_checked: bool,
    metrics: dict[str, float],
) -> AnalysisReport:
    """The report both entry points return; the schedule half always
    runs, the plan half only when there is a static plan."""
    plan = "plan" if plan_checked else "plan skipped"
    return AnalysisReport(
        tool="certify",
        program=program,
        machine=machine,
        findings=findings,
        extras={
            "plan_checked": plan_checked,
            "schedule_checked": True,
            "metrics": metrics,
        },
        verdict="certified",
        verdict_allows_notes=True,
        detail=f"{plan} + schedule",
    )


#: id(spec) -> (spec, its bus topology); holding the spec keeps its id
#: from being reused while the entry lives.
_BUS_TOPOLOGIES: dict[int, tuple[MachineSpec, ChannelTopology]] = {}
_BUS_TOPOLOGIES_KEPT = 8


def _bus_topology(spec: MachineSpec) -> ChannelTopology:
    """The machine's bus topology, built once per spec object: it keeps
    its route cache across certifications of one machine."""
    entry = _BUS_TOPOLOGIES.get(id(spec))
    if entry is None or entry[0] is not spec:
        if len(_BUS_TOPOLOGIES) >= _BUS_TOPOLOGIES_KEPT:
            _BUS_TOPOLOGIES.clear()
        entry = _BUS_TOPOLOGIES[id(spec)] = (spec, bus_topology(spec))
    return entry[1]


def _initial_occupancy(compiled: object) -> dict[str, str]:
    """Constrained inputs start the program already parked in reservoirs
    (a previous partition left them; no ``input`` instruction loads
    them)."""
    initial: dict[str, str] = {}
    allocation = getattr(compiled, "allocation", None)
    final_dag = getattr(compiled, "final_dag", None)
    if allocation is None or final_dag is None:
        return initial
    for node in final_dag.nodes():
        if node.kind is NodeKind.CONSTRAINED_INPUT:
            reservoir = allocation.reservoir_of.get(node.id)
            if reservoir is not None:
                initial[reservoir] = node.id
    return initial


def certify(
    compiled: object,
    *,
    spec: MachineSpec | None = None,
    topology: ChannelTopology | None = None,
    ratio_tolerance: Fraction | None = None,
    slots: Sequence[int] | None = None,
) -> AnalysisReport:
    """Certify a compiled assay: validate its plan, then its schedule.

    Args:
        compiled: a ``repro.compiler.CompiledAssay`` (accessed duck-typed:
            ``final_dag``/``assignment``/``plan``/``planner``/``program``/
            ``spec``/``allocation``).
        spec: machine override; defaults to the spec the assay was
            compiled for.
        topology: channel graph for the schedule half; defaults to the
            machine's bus topology.
        ratio_tolerance: override for the plan half's per-edge mix-ratio
            tolerance.
        slots: optional concurrency schedule (see
            :func:`~.schedule.certify_schedule`).
    """
    machine_spec = spec or compiled.spec
    assignment = getattr(compiled, "assignment", None)
    plan = getattr(compiled, "plan", None)
    if assignment is not None:
        expect_feasible = not (
            plan is not None and getattr(plan, "needs_regeneration", False)
        )
        findings, metrics = certify_plan(
            compiled.final_dag,
            assignment,
            machine_spec.limits,
            expect_feasible=expect_feasible,
            ratio_tolerance=ratio_tolerance,
        )
    else:
        deferred = PLAN_CODES["PLAN-DEFERRED"]
        findings = [Diagnostic(deferred.severity, deferred.code, deferred.title)]
        metrics = {}

    schedule_findings = certify_schedule(
        compiled.program,
        machine_spec,
        topology=topology or _bus_topology(machine_spec),
        initial=_initial_occupancy(compiled),
        slots=slots,
    )
    return _certificate(
        compiled.program.name,
        machine_spec.name,
        findings + schedule_findings,
        plan_checked=assignment is not None,
        metrics=metrics,
    )


def certify_program(
    program: AISProgram,
    spec: MachineSpec = AQUACORE_SPEC,
    *,
    topology: ChannelTopology | None = None,
    initial: dict[str, str] | None = None,
    slots: Sequence[int] | None = None,
) -> AnalysisReport:
    """Certify a bare AIS listing (schedule interference only).

    Without a volume plan there is nothing for the plan half to validate;
    hand-written listings get the full occupancy/routing analysis.
    """
    findings = certify_schedule(
        program,
        spec,
        topology=topology or _bus_topology(spec),
        initial=initial,
        slots=slots,
    )
    return _certificate(
        program.name, spec.name, findings, plan_checked=False, metrics={}
    )
