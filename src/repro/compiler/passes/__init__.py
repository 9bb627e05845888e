"""Instrumented pass-manager: the one compilation driver.

The pipeline of paper Figure 6 — parse, unroll, lower, partition,
DAGSolve, LP fallback, cascade/replicate transforms, rounding, codegen,
plus the optional analyzers — is expressed as typed passes run by a
:class:`PassManager` over a shared :class:`CompileContext`.  Every pass
run emits a structured :class:`PassEvent` (timing, fingerprints, cache
interaction, diagnostics delta) to a pluggable :class:`PassEventBus`,
surfaced as ``repro compile --time-passes`` / ``--explain``.

Entry points:

* :func:`run_compile` — full compile, the one compile entry point;
  behind ``compile_many``, the service and every CLI command;
* :func:`front_end` — source -> validated DAG only;
* :func:`run_hierarchy` — just the volume-management loop (behind
  :meth:`repro.core.hierarchy.VolumeManager.plan`).

See ``docs/ARCHITECTURE.md`` for the pass graph and a guide to writing
new passes.
"""

from .context import CompileContext, CompiledAssay, HierarchyState
from .events import (
    PASS_EVENT_SCHEMA_VERSION,
    PassEvent,
    PassEventBus,
    events_payload,
    plan_payload,
    render_timing_table,
)
from .manager import OK, Pass, PassManager, PassOutcome, run_instrumented
from .stages import (
    Assemble,
    BuildDAG,
    CascadeTransform,
    CertifyPass,
    Codegen,
    DAGSolvePass,
    HierarchyLoop,
    LintPass,
    LPFallback,
    ObjectiveSelect,
    ParseSource,
    Partition,
    PlanDiagnostics,
    RaceCheckPass,
    ReplicateTransform,
    RestorePlan,
    Round,
    SourceLintPass,
    Unroll,
    default_passes,
    front_end,
    front_end_dag,
    frontend_passes,
    run_compile,
    run_hierarchy,
)

__all__ = [
    "CompileContext",
    "CompiledAssay",
    "HierarchyState",
    "PASS_EVENT_SCHEMA_VERSION",
    "PassEvent",
    "PassEventBus",
    "events_payload",
    "plan_payload",
    "render_timing_table",
    "OK",
    "Pass",
    "PassManager",
    "PassOutcome",
    "run_instrumented",
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
    "front_end_dag",
    "run_compile",
    "run_hierarchy",
]
