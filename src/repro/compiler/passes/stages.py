"""The registered compilation passes (paper Figure 6 as a pass pipeline).

Front end::

    ParseSource -> [SourceLintPass] -> Unroll -> BuildDAG

(``SourceLintPass`` is the opt-in rolled-program verifier from
:mod:`repro.analysis.sourceflow`; it runs before unrolling so its
verdicts are independent of concrete trip counts.)

Volume management (one pass each for the hierarchy's boxes)::

    Partition            runtime-deferred assays get a RuntimePlanner
    ObjectiveSelect      record the planning objective driving the solvers
    RestorePlan          content-addressed cache lookup (prefix skip)
    HierarchyLoop        DAGSolvePass -> LPFallback -> CascadeTransform
                         -> ReplicateTransform, looped per Figure 6
    Round                least-count rounding + cache store
    PlanDiagnostics      transform / rounding / regeneration reporting

Back end::

    Codegen -> LintPass -> Assemble -> CertifyPass

:func:`run_compile` wires them into the one :class:`PassManager` every
driver (``compile_many``, the service, the CLI) routes through;
:func:`front_end` runs just the front half for tools that stop at the
DAG.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence

from ...core.cascading import cascade_extreme_mixes, find_extreme_mixes
from ...core.dag import AssayDAG
from ...core.dagsolve import dagsolve as exact_dagsolve
# unused here; perfbench/tracing.py wraps stages.dispense by name
from ...core.dagsolve import dispense  # noqa: F401
from ...core.errors import (
    InfeasibleError,
    ResourceExhaustedError,
    SolverError,
    VolumeError,
)
from ...core.hierarchy import VolumeManager, VolumePlan
from ...core.lp import solve_model
from ...core.lpmodel import IncrementalLPBuilder
from ...core.replication import iterative_replication
from ...core.rounding import max_ratio_error, round_assignment
from ...ir.builder import build_dag_from_flat
from ...lang.parser import parse
from ...lang.semantic import analyze
from ...lang.unroll import unroll
from ...machine.spec import AQUACORE_SPEC, MachineSpec
from ..codegen import generate
from .context import CompileContext, CompiledAssay, HierarchyState
from .events import PassEventBus
from .manager import OK, Pass, PassManager, PassOutcome, run_instrumented

__all__ = [
    "ParseSource",
    "SourceLintPass",
    "Unroll",
    "BuildDAG",
    "Partition",
    "ObjectiveSelect",
    "RestorePlan",
    "DAGSolvePass",
    "LPFallback",
    "CascadeTransform",
    "ReplicateTransform",
    "HierarchyLoop",
    "Round",
    "PlanDiagnostics",
    "Codegen",
    "LintPass",
    "Assemble",
    "CertifyPass",
    "RaceCheckPass",
    "default_passes",
    "frontend_passes",
    "front_end",
    "run_compile",
    "run_hierarchy",
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _dag_fingerprint(dag: AssayDAG | None) -> str | None:
    if dag is None:
        return None
    from ...core.fingerprint import fingerprint_dag

    return fingerprint_dag(dag)


def _has_unknown_flows(dag: AssayDAG) -> bool:
    return any(
        node.unknown_volume and dag.out_degree(node.id) > 0
        for node in dag.nodes()
    )


#: the skip reason of every static-plan pass on a runtime-deferred assay.
RUNTIME_DEFERRED = "runtime-deferred assay"
#: the skip reason of the passes that need the rolled program.
NO_AST = "no AST (DAG or flat assay supplied directly)"


# ---------------------------------------------------------------------------
# front end
# ---------------------------------------------------------------------------
class ParseSource(Pass):
    """Lex, parse, and semantically analyze the assay source."""

    name = "parse"

    def skip(self, ctx: CompileContext) -> str | None:
        return "DAG supplied directly" if ctx.dag is not None else None

    def fingerprint_in(self, ctx: CompileContext) -> str | None:
        return _sha256(ctx.source) if ctx.source is not None else None

    def run(self, ctx: CompileContext) -> PassOutcome:
        ctx.ast = parse(ctx.source)
        ctx.symbols = analyze(ctx.ast)
        return OK


class SourceLintPass(Pass):
    """Parametric fluid-safety verification over the *rolled* AST.

    Runs the :mod:`repro.analysis.sourceflow` fixpoint (interval
    abstract interpretation with widening) before unrolling, so its
    verdicts hold for every loop bound at O(program size) cost.
    """

    name = "source-lint"

    def skip(self, ctx: CompileContext) -> str | None:
        if not ctx.source_lint:
            return "source lint not requested"
        return NO_AST if ctx.ast is None else None

    def run(self, ctx: CompileContext) -> PassOutcome:
        # local import: repro.analysis imports the compiler's products
        from ...analysis.sourceflow import verify_program

        report = verify_program(ctx.ast, ctx.spec, symbols=ctx.symbols)
        ctx.diagnostics.extend(report.findings)
        return PassOutcome(
            detail=(
                f"{len(report.findings)} finding(s), "
                f"{report.extras['fixpoint']['sweeps']} sweep(s)"
            )
        )


class Unroll(Pass):
    """Unroll loops and fold constants into a flat wet-operation list."""

    name = "unroll"

    def skip(self, ctx: CompileContext) -> str | None:
        return NO_AST if ctx.ast is None else None

    def run(self, ctx: CompileContext) -> PassOutcome:
        ctx.flat = unroll(ctx.ast, ctx.symbols)
        return PassOutcome(
            detail=f"{len(ctx.flat.statements)} wet operations"
        )


class BuildDAG(Pass):
    """Lower the flat assay to the volume DAG and validate it."""

    name = "build-dag"

    def fingerprint_out(self, ctx: CompileContext) -> str | None:
        return _dag_fingerprint(ctx.dag)

    def run(self, ctx: CompileContext) -> PassOutcome:
        built = False
        if ctx.dag is None:
            ctx.dag = build_dag_from_flat(ctx.flat)
            built = True
        if ctx.flat is not None:
            if not ctx.name:
                ctx.name = ctx.flat.name
            if not ctx.aux_fluids:
                ctx.aux_fluids = tuple(ctx.flat.aux_fluids)
        ctx.dag.validate()
        return PassOutcome(
            detail=(
                f"{ctx.dag.node_count} nodes, {ctx.dag.edge_count} edges"
                + ("" if built else " (validated supplied DAG)")
            )
        )


# ---------------------------------------------------------------------------
# volume management
# ---------------------------------------------------------------------------
class Partition(Pass):
    """Partition statically-unknown assays for run-time assignment."""

    name = "partition"

    def skip(self, ctx: CompileContext) -> str | None:
        if _has_unknown_flows(ctx.dag):
            return None
        return "all volumes statically known"

    def run(self, ctx: CompileContext) -> PassOutcome:
        from ...core.runtime_assign import RuntimePlanner

        planner = RuntimePlanner(ctx.dag, ctx.spec.limits)
        ctx.planner = planner
        ctx.diagnostics.note(
            "runtime-assignment",
            f"{planner.n_partitions} partitions; final dispensing deferred "
            "to run time for measured volumes",
        )
        for partition in planner.partitions:
            vnorms = planner.vnorms[partition.index]
            peak = vnorms.max_vnorm()
            for spec_input in partition.constrained:
                vnorm = vnorms.node_vnorm.get(spec_input.node_id)
                if vnorm is not None and peak > 0 and vnorm / peak < 1 / 100:
                    ctx.diagnostics.warning(
                        "underflow-risk",
                        f"constrained input {spec_input.node_id} has Vnorm "
                        f"{vnorm} (tiny relative to its partition); low "
                        "measured volumes will trigger regeneration",
                        node=spec_input.node_id,
                    )
        return PassOutcome(detail=f"{planner.n_partitions} partitions")


class ObjectiveSelect(Pass):
    """Record which planning objective drives the hierarchy's solvers.

    The objective itself lives on the :class:`VolumeManager` (so batch
    workers and the cache fingerprint see it through ``options_dict``);
    this pass surfaces the selection in the pass trace and diagnostics so
    ``--explain`` and ``--stats-json`` readers can tell a waste-optimised
    compile from a paper-faithful one at a glance.
    """

    name = "objective"

    def run(self, ctx: CompileContext) -> PassOutcome:
        objective = ctx.objective
        if objective.name != "default":
            ctx.diagnostics.note(
                "objective",
                f"planning objective {objective.name!r}: "
                f"{objective.description}",
            )
        return PassOutcome(detail=objective.name)


class RestorePlan(Pass):
    """Serve the volume plan from the content-addressed cache."""

    name = "restore-plan"

    def skip(self, ctx: CompileContext) -> str | None:
        if not ctx.is_static:
            return RUNTIME_DEFERRED
        return "no plan cache configured" if ctx.cache is None else None

    def fingerprint_in(self, ctx: CompileContext) -> str | None:
        return ctx.compile_fingerprint()

    def run(self, ctx: CompileContext) -> PassOutcome:
        fingerprint = ctx.compile_fingerprint()
        restored = ctx.cache.get_plan(fingerprint)
        if restored is None:
            return PassOutcome(cache="miss", detail="cold compile")
        ctx.plan, ctx.assignment = restored
        ctx.plan_restored = True
        ctx.diagnostics.note(
            "plan-cache",
            "volume plan served from the content-addressed cache",
        )
        return PassOutcome(status="cached", cache="hit")


class DAGSolvePass(Pass):
    """DAGSolve: linear Vnorm back-propagation + forward dispensing.

    Runs :func:`repro.core.dagsolve.dagsolve`, whose flat per-DAG
    context is cached on the DAG, so retry rounds over an untransformed
    graph skip the adjacency walk entirely.
    """

    name = "dagsolve"

    def run(self, ctx: CompileContext) -> PassOutcome:
        state = ctx.hierarchy
        manager = ctx.manager
        assignment = exact_dagsolve(
            state.current,
            manager.limits,
            ctx.output_targets,
            objective=manager.objective,
        )
        return PassOutcome(detail=state.settle(self.name, assignment))


def _failed(
    state: HierarchyState, stage: str, error: Exception
) -> PassOutcome:
    """Record a stage that raised instead of producing a result."""
    state.record(stage, False, str(error))
    return PassOutcome(status="failed", detail=str(error))


class LPFallback(Pass):
    """LP fallback: strictly more general, used when DAGSolve fails.

    Retry rounds share one :class:`~repro.core.lpmodel.
    IncrementalLPBuilder` (held on the hierarchy state).  Before it
    builds a model, the builder's least-volume bound
    (:meth:`~repro.core.lpmodel.IncrementalLPBuilder.
    least_volume_violation`) checks constraint classes 1-5.  When some
    node cannot fit, the attempt is recorded as failed with the bound's
    reason, and the pass reports ``skipped``: no model is built or
    solved.  Otherwise the model is built from scratch and solved, and
    the pass reports the hierarchy's verdict on the assignment.
    """

    name = "lp"

    def skip(self, ctx: CompileContext) -> str | None:
        if not ctx.manager.use_lp:
            return "LP disabled (use_lp off)"
        if ctx.hierarchy.transformed:
            # only reachable in the objective-reordered round (LP last):
            # let the rewritten DAG go through DAGSolve first
            return "transform already rewrote this round"
        return None

    def run(self, ctx: CompileContext) -> PassOutcome:
        state = ctx.hierarchy
        manager = ctx.manager
        if state.lp_builder is None:
            state.lp_builder = IncrementalLPBuilder(
                manager.limits,
                output_tolerance=manager.output_tolerance,
                objective=manager.objective,
            )
        reason = state.lp_builder.least_volume_violation(state.current)
        if reason is not None:
            detail = f"LP infeasible for DAG {state.current.name!r}: {reason}"
            state.record(self.name, False, detail)
            return PassOutcome(status="skipped", detail=detail)
        try:
            model = state.lp_builder.build(state.current)
            assignment = solve_model(model)
        except (InfeasibleError, SolverError) as error:
            return _failed(state, self.name, error)
        return PassOutcome(detail=state.settle(self.name, assignment))


class _TransformStage(Pass):
    """A Figure 6 DAG rewrite: the rewritten graph re-enters the loop."""

    def rewrite(
        self, dag: AssayDAG, manager: VolumeManager
    ) -> tuple[AssayDAG, list]:
        raise NotImplementedError

    def run(self, ctx: CompileContext) -> PassOutcome:
        state = ctx.hierarchy
        try:
            state.current, reports = self.rewrite(state.current, ctx.manager)
        except (VolumeError, ResourceExhaustedError) as error:
            return _failed(state, self.name, error)
        state.transforms.extend(reports)
        state.record(self.name, True, "; ".join(str(r) for r in reports))
        state.transformed = bool(reports)
        return PassOutcome(detail=f"{len(reports)} rewrite(s)")


class CascadeTransform(_TransformStage):
    """Cascade extreme mix ratios into staged dilutions (Section 3.4.1)."""

    name = "cascade"

    def skip(self, ctx: CompileContext) -> str | None:
        if ctx.manager.allow_cascading:
            return None
        return "cascading disabled (allow_cascading off)"

    def run(self, ctx: CompileContext) -> PassOutcome:
        if not find_extreme_mixes(ctx.hierarchy.current, ctx.manager.limits):
            return PassOutcome(status="skipped", detail="no extreme mixes")
        return super().run(ctx)

    def rewrite(self, dag, manager):
        return cascade_extreme_mixes(
            dag, manager.limits, objective=manager.objective
        )


class ReplicateTransform(_TransformStage):
    """Statically replicate over-used fluids (Section 3.4.2)."""

    name = "replicate"

    def skip(self, ctx: CompileContext) -> str | None:
        if not ctx.manager.allow_replication:
            return "replication disabled (allow_replication off)"
        if ctx.hierarchy.transformed:
            return "cascade already rewrote this round"
        return None

    def rewrite(self, dag, manager):
        return iterative_replication(
            dag, manager.limits, max_total_nodes=manager.max_total_nodes
        )


class HierarchyLoop(Pass):
    """The Figure 6 flowchart: solve, fall back, transform, repeat.

    The paper's round order is DAGSolve → LP → cascade → replicate.  A
    scale-minimising objective (``--objective waste``) reorders the round
    to DAGSolve → cascade → replicate → LP: its front-loaded cascades
    often need a replication round to clear the least count at the waste
    floor, and an early LP "rescue" of the intermediate state would lock
    in a contorted low-utilisation solution that the next structural
    rewrite would have beaten outright.  The LP stays available as the
    last resort of a round in which no transform applied.
    """

    name = "hierarchy"

    def __init__(self) -> None:
        self.dagsolve = DAGSolvePass()
        self.lp = LPFallback()
        self.cascade = CascadeTransform()
        self.replicate = ReplicateTransform()

    def children(self) -> Sequence[Pass]:
        return (self.dagsolve, self.lp, self.cascade, self.replicate)

    def round_stages(self, manager) -> Sequence[Pass]:
        if manager.objective.minimize_scale:
            return (self.dagsolve, self.cascade, self.replicate, self.lp)
        return self.children()

    def skip(self, ctx: CompileContext) -> str | None:
        if not ctx.is_static:
            return RUNTIME_DEFERRED
        return "plan served from cache" if ctx.plan_restored else None

    def fingerprint_in(self, ctx: CompileContext) -> str | None:
        return _dag_fingerprint(ctx.dag)

    def fingerprint_out(self, ctx: CompileContext) -> str | None:
        return _dag_fingerprint(ctx.plan.dag if ctx.plan else None)

    def run(self, ctx: CompileContext) -> PassOutcome:
        manager = ctx.manager
        state = HierarchyState(
            current=ctx.dag, objective=manager.objective.name
        )
        ctx.hierarchy = state
        for round_number in range(1, manager.max_rounds + 1):
            state.round = round_number
            state.transformed = False
            for stage in self.round_stages(manager):
                run_instrumented(stage, ctx, round=round_number)
                if state.plan is not None:
                    break
            if state.plan is not None:
                break
            if not state.transformed:
                break  # nothing left to try; fall through to regeneration
        if state.plan is None:
            status = "regeneration" if state.best is not None else "failed"
            state.plan = state.volume_plan(state.best, status)
        ctx.plan = state.plan
        return PassOutcome(detail=ctx.plan.status)


class Round(Pass):
    """Round the assignment to least-count multiples; store in the cache."""

    name = "round"

    def skip(self, ctx: CompileContext) -> str | None:
        if not ctx.is_static:
            return RUNTIME_DEFERRED
        if ctx.plan_restored:
            return "rounded assignment restored with the cached plan"
        return None

    def run(self, ctx: CompileContext) -> PassOutcome:
        plan = ctx.plan
        ctx.assignment = (
            round_assignment(plan.assignment)
            if plan.assignment is not None
            else None
        )
        if ctx.cache is not None:
            stored = ctx.cache.put_plan(
                ctx.compile_fingerprint(), plan, ctx.assignment
            )
            return PassOutcome(
                cache="store" if stored else None,
                detail="" if stored else "plan uncacheable",
            )
        return OK


class PlanDiagnostics(Pass):
    """Report transforms, rounding error, and regeneration fallback."""

    name = "plan-report"

    def skip(self, ctx: CompileContext) -> str | None:
        return None if ctx.is_static else RUNTIME_DEFERRED

    def run(self, ctx: CompileContext) -> PassOutcome:
        plan = ctx.plan
        diagnostics = ctx.diagnostics
        for report in plan.transforms:
            diagnostics.note("transform", str(report))
        if plan.assignment is None:
            diagnostics.error(
                "no-volume-assignment",
                "the hierarchy produced no volume assignment at all",
            )
        else:
            assignment = ctx.assignment
            error = max_ratio_error(assignment)
            if error > 0:
                diagnostics.note(
                    "rounding-error",
                    f"least-count rounding perturbs mix ratios by up to "
                    f"{float(error) * 100:.3f}%",
                )
            residual = assignment.violations()
            if plan.needs_regeneration or residual:
                diagnostics.warning(
                    "regeneration-fallback",
                    "no feasible static assignment; execution will rely on "
                    "regeneration "
                    f"({len(residual)} residual violations)",
                )
        return OK


# ---------------------------------------------------------------------------
# back end
# ---------------------------------------------------------------------------
class Codegen(Pass):
    """Reservoir allocation and AIS instruction selection."""

    name = "codegen"

    def fingerprint_in(self, ctx: CompileContext) -> str | None:
        return _dag_fingerprint(ctx.final_dag)

    def fingerprint_out(self, ctx: CompileContext) -> str | None:
        if ctx.program is None:
            return None
        return _sha256(ctx.program.render())

    def run(self, ctx: CompileContext) -> PassOutcome:
        ctx.program, ctx.allocation = generate(
            ctx.final_dag,
            ctx.spec,
            name=ctx.resolved_name,
            aux_fluids=ctx.aux_fluids,
        )
        return PassOutcome(
            detail=f"{len(ctx.program.instructions)} instructions"
        )


class LintPass(Pass):
    """Fluid-safety static analysis over the generated program."""

    name = "lint"

    def skip(self, ctx: CompileContext) -> str | None:
        return None if ctx.lint else "lint not requested"

    def run(self, ctx: CompileContext) -> PassOutcome:
        # local import: repro.analysis imports the compiler's products
        from ...analysis import analyze as lint_program

        ctx.diagnostics.extend(lint_program(ctx.program, ctx.spec))
        return OK


class Assemble(Pass):
    """Package every artifact as the caller-facing CompiledAssay."""

    name = "assemble"

    def run(self, ctx: CompileContext) -> PassOutcome:
        ctx.compiled = CompiledAssay(
            name=ctx.resolved_name,
            program=ctx.program,
            dag=ctx.dag,
            final_dag=ctx.final_dag,
            spec=ctx.spec,
            allocation=ctx.allocation,
            source=ctx.source,
            flat=ctx.flat,
            plan=ctx.plan,
            assignment=ctx.assignment,
            planner=ctx.planner,
            diagnostics=ctx.diagnostics,
        )
        return OK


class CertifyPass(Pass):
    """Translation-validate the plan and schedule (repro.analysis.certify)."""

    name = "certify"

    def skip(self, ctx: CompileContext) -> str | None:
        return None if ctx.certify else "certify not requested"

    def run(self, ctx: CompileContext) -> PassOutcome:
        # local import: repro.analysis imports the compiler's products
        from ...analysis.certify import certify as certify_compiled

        ctx.diagnostics.extend(certify_compiled(ctx.compiled).findings)
        return OK


class RaceCheckPass(Pass):
    """Static race detection over the generated schedule (repro.analysis.races).

    On a single compile this reports *schedule-sensitive* pairs —
    conflicting accesses ordered only by emission order, which a
    scheduler may not reorder — as notes, plus any definite RACE-*
    errors the happens-before analysis can prove.
    """

    name = "race-check"

    def skip(self, ctx: CompileContext) -> str | None:
        return None if ctx.race_check else "race check not requested"

    def run(self, ctx: CompileContext) -> PassOutcome:
        # local import: repro.analysis imports the compiler's products
        from ...analysis.races import analyze_races

        report = analyze_races(ctx.program, ctx.spec)
        ctx.diagnostics.extend(report.findings)
        return PassOutcome(
            detail=(
                f"{len(report.findings)} finding(s), "
                f"{report.extras['mhp']['mhp_pairs']} schedule-sensitive "
                "pair(s)"
            )
        )


# ---------------------------------------------------------------------------
# pass plans + drivers
# ---------------------------------------------------------------------------
def frontend_passes() -> list[Pass]:
    """Source -> validated DAG (what ``repro check``/``repro dag`` need)."""
    return [ParseSource(), Unroll(), BuildDAG()]


def default_passes() -> list[Pass]:
    """The full compile pipeline, front end through certification."""
    return [ParseSource(), SourceLintPass(), Unroll(), BuildDAG()] + [
        Partition(),
        ObjectiveSelect(),
        RestorePlan(),
        HierarchyLoop(),
        Round(),
        PlanDiagnostics(),
        Codegen(),
        LintPass(),
        Assemble(),
        CertifyPass(),
        RaceCheckPass(),
    ]


def front_end(
    *, source: str, spec: MachineSpec = AQUACORE_SPEC
) -> CompileContext:
    """Run only the front end; returns the context (flat + validated DAG)."""
    ctx = CompileContext(source=source, spec=spec)
    ctx.pass_manager = PassManager(frontend_passes())
    ctx.pass_manager.run(ctx)
    return ctx


def front_end_dag(
    source: str | None = None,
    dag: AssayDAG | None = None,
    aux_fluids: Sequence[str] = (),
) -> tuple[AssayDAG, tuple[str, ...]]:
    """Parse (or pass through) to a validated ``(dag, aux_fluids)`` pair."""
    if dag is not None:
        dag.validate()
        return dag, tuple(aux_fluids)
    ctx = front_end(source=source)
    return ctx.dag, tuple(ctx.aux_fluids)


def run_compile(
    *,
    source: str | None = None,
    dag: AssayDAG | None = None,
    spec: MachineSpec = AQUACORE_SPEC,
    name: str | None = None,
    aux_fluids: Sequence[str] = (),
    manager: VolumeManager | None = None,
    cache=None,
    lint: bool = False,
    certify: bool = False,
    source_lint: bool = False,
    race_check: bool = False,
    profile: bool = False,
    bus: PassEventBus | None = None,
    fingerprint: str | None = None,
) -> CompileContext:
    """Compile through the one instrumented pass manager.

    This is the single compile entry point: ``compile_many`` workers,
    the service and every CLI command call it.  Returns the full
    :class:`CompileContext`; the caller-facing result is
    ``ctx.compiled`` (a :class:`~repro.compiler.passes.context.CompiledAssay`).
    A caller that already knows the compile ``fingerprint`` passes it,
    so the cache passes do not compute it again.
    """
    ctx = CompileContext(
        source=source,
        dag=dag,
        name=name,
        aux_fluids=tuple(aux_fluids),
        spec=spec,
        manager=manager,
        cache=cache,
        lint=lint,
        certify=certify,
        source_lint=source_lint,
        race_check=race_check,
        profile=profile,
        fingerprint=fingerprint,
    )
    if bus is not None:
        ctx.events = bus
    ctx.pass_manager = PassManager(default_passes())
    ctx.pass_manager.run(ctx)
    return ctx


def run_hierarchy(
    dag: AssayDAG,
    manager: VolumeManager,
    output_targets=None,
) -> VolumePlan:
    """Run just the Figure 6 hierarchy loop over a DAG.

    This is the engine behind :meth:`repro.core.hierarchy.VolumeManager.plan`
    — the hierarchy has exactly one implementation, expressed as passes.
    """
    ctx = CompileContext(
        dag=dag, manager=manager, output_targets=output_targets
    )
    run_instrumented(HierarchyLoop(), ctx)
    return ctx.plan
