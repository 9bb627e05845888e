"""The compile context: one mutable record threaded through every pass.

A :class:`CompileContext` carries the *request* (source text or prebuilt
DAG, machine spec, volume-manager knobs, plan cache, analyzer switches),
the *working state* passes hand to each other (flat assay, DAG, hierarchy
attempts, volume plan), and the *instrumentation* (diagnostic sink and
pass-event bus).  Passes communicate exclusively through the context —
there is no other side channel — which is what lets the manager time,
fingerprint, and cache each stage uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING
from collections.abc import Mapping, Sequence

from ...core.dag import AssayDAG
from ...core.dagsolve import VolumeAssignment, Violation
from ...core.hierarchy import Attempt, TransformReport, VolumeManager, VolumePlan
from ...machine.spec import AQUACORE_SPEC, MachineSpec
from ..diagnostics import DiagnosticSink
from .events import NULL_BUS, PassEventBus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...core.runtime_assign import RuntimePlanner
    from ...ir.program import AISProgram
    from ...ir.regalloc import ReservoirAssignment
    from ...lang.unroll import FlatAssay
    from ..cache import PlanCache

__all__ = ["CompileContext", "CompiledAssay", "HierarchyState"]


@dataclass
class CompiledAssay:
    """Everything the compiler produced for one assay (``ctx.compiled``)."""

    name: str
    program: "AISProgram"
    dag: AssayDAG                     # the volume DAG as written
    final_dag: AssayDAG               # after transforms (== dag when none)
    spec: MachineSpec
    allocation: "ReservoirAssignment"
    source: str | None = None
    flat: "FlatAssay" | None = None
    plan: VolumePlan | None = None             # static case
    assignment: VolumeAssignment | None = None  # rounded, static case
    planner: "RuntimePlanner" | None = None    # statically-unknown case
    diagnostics: DiagnosticSink = field(default_factory=DiagnosticSink)

    @property
    def is_static(self) -> bool:
        """True when volume assignment completed fully at compile time."""
        return self.planner is None

    @property
    def needs_regeneration(self) -> bool:
        return self.plan is not None and self.plan.needs_regeneration

    def listing(self) -> str:
        return self.program.render()


@dataclass
class HierarchyState:
    """Working state of the Figure 6 loop (owned by the hierarchy passes).

    Every stage reports through :meth:`record`; the solver stages hand
    their assignment to :meth:`settle`, and :meth:`volume_plan` is the
    one place a :class:`VolumePlan` is built from the loop's history.
    """

    current: AssayDAG
    #: name of the planning objective, stamped on every attempt.
    objective: str = "default"
    attempts: list[Attempt] = field(default_factory=list)
    transforms: list[TransformReport] = field(default_factory=list)
    best: VolumeAssignment | None = None
    round: int = 0
    #: set by a stage that produced a feasible plan; ends the loop.
    plan: VolumePlan | None = None
    #: set by a transform stage that rewrote the DAG this round.
    transformed: bool = False
    #: LP model builder for the run's limits and options, created by the
    #: first LP attempt; each build derives its model afresh.
    lp_builder: object | None = None

    def record(
        self,
        stage: str,
        succeeded: bool,
        detail: str = "",
        violations: Sequence[Violation] = (),
    ) -> None:
        """Append this round's attempt at ``stage`` to the history."""
        self.attempts.append(
            Attempt(
                stage,
                self.round,
                succeeded,
                detail=detail,
                violations=tuple(violations),
                objective=self.objective,
            )
        )

    def settle(self, stage: str, assignment: VolumeAssignment) -> str:
        """Record a solver's assignment and keep it.

        A feasible assignment becomes the plan (which ends the loop); an
        infeasible one competes for ``best``, the regeneration fallback.
        The attempt's detail is its first violations.  Returns the
        verdict for the pass event.
        """
        violations = assignment.violations()
        detail = "; ".join(str(v) for v in violations[:3])
        self.record(stage, not violations, detail, violations)
        if violations:
            self.best = VolumeManager._better(self.best, assignment)
            return f"{len(violations)} violation(s)"
        self.plan = self.volume_plan(assignment, stage)
        return "feasible"

    def volume_plan(
        self, assignment: VolumeAssignment | None, status: str
    ) -> VolumePlan:
        return VolumePlan(
            self.current, assignment, status, self.attempts, self.transforms
        )


@dataclass
class CompileContext:
    """Everything one compilation carries between passes."""

    # ---- request ------------------------------------------------------
    source: str | None = None
    dag: AssayDAG | None = None
    name: str | None = None
    aux_fluids: Sequence[str] = ()
    spec: MachineSpec = AQUACORE_SPEC
    manager: VolumeManager | None = None
    cache: "PlanCache" | None = None
    lint: bool = False
    certify: bool = False
    source_lint: bool = False
    race_check: bool = False
    #: wrap each leaf pass in its own cProfile session; the hotspots ride
    #: on the pass events (``--profile``).
    profile: bool = False
    output_targets: Mapping[str, object] | None = None

    # ---- working state ------------------------------------------------
    ast: object | None = None        # lang AST (ParseSource product)
    symbols: object | None = None    # semantic symbol table
    flat: "FlatAssay" | None = None
    hierarchy: HierarchyState | None = None
    #: compile fingerprint: the caller's, or computed once a cache pass
    #: needs it.
    fingerprint: str | None = None
    #: the plan stage was satisfied by a cache entry (prefix skip).
    plan_restored: bool = False

    # ---- results ------------------------------------------------------
    plan: VolumePlan | None = None
    assignment: VolumeAssignment | None = None      # rounded, static
    planner: "RuntimePlanner" | None = None
    program: "AISProgram" | None = None
    allocation: "ReservoirAssignment" | None = None
    compiled: CompiledAssay | None = None

    # ---- instrumentation ---------------------------------------------
    diagnostics: DiagnosticSink = field(default_factory=DiagnosticSink)
    events: PassEventBus = NULL_BUS
    #: the manager that ran this context (set by run_compile/front_end so
    #: callers can render ``explain`` output against the resolved plan).
    pass_manager: object | None = None

    def __post_init__(self) -> None:
        if self.source is None and self.dag is None:
            raise ValueError("CompileContext needs source text or a DAG")
        if self.manager is None:
            self.manager = VolumeManager(self.spec.limits)

    # ------------------------------------------------------------------
    @property
    def limits(self):
        return self.spec.limits

    @property
    def objective(self):
        """The planning objective driving every solver in this compile."""
        return self.manager.objective

    @property
    def is_static(self) -> bool:
        """True when no runtime planner took over volume assignment."""
        return self.planner is None

    @property
    def final_dag(self) -> AssayDAG | None:
        """The DAG codegen runs over: post-transform when a plan exists."""
        if self.plan is not None:
            return self.plan.dag
        return self.dag

    @property
    def resolved_name(self) -> str:
        if self.name:
            return self.name
        if self.dag is not None:
            return self.dag.name
        return "assay"

    def compile_fingerprint(self) -> str:
        """The content address of this request (memoized on the context)."""
        if self.fingerprint is None:
            from ...core.fingerprint import compile_fingerprint

            self.fingerprint = compile_fingerprint(
                self.dag, self.limits, self.spec, self.manager.options_dict()
            )
        return self.fingerprint
