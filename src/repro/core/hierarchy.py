"""The volume-management hierarchy (paper Figure 6).

The paper composes its techniques as a hierarchy of attempts:

1. **DAGSolve** — fast, linear, may fail because of its two artificial
   constraints;
2. **LP** — slower, strictly more general (no flow conservation, free output
   proportions); used only when DAGSolve's assignment is infeasible;
3. **DAG transforms** — if even LP fails, the graph itself is at fault:
   *cascading* rewrites extreme mix ratios, *static replication* rewrites
   heavily-used fluids; the rewritten DAG re-enters the hierarchy;
4. **Regeneration** — the reactive Biostream fallback: accept the best
   infeasible plan and re-execute backward slices at run time whenever a
   fluid actually runs out ("it is better to provide a slow solution than no
   solution").

:class:`VolumeManager` implements the flowchart and records every attempt so
benchmarks and callers can see *why* a plan ended up where it did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence

from .cascading import CascadeReport
from .dag import AssayDAG
from .dagsolve import VolumeAssignment, Violation
from .errors import VolumeError
from .limits import HardwareLimits, Number
from .objectives import resolve_objective
from .replication import ReplicationReport

__all__ = ["Attempt", "VolumePlan", "VolumeManager"]

TransformReport = CascadeReport | ReplicationReport


@dataclass(frozen=True)
class Attempt:
    """One stage of the hierarchy and how it fared."""

    stage: str          # "dagsolve" | "lp" | "cascade" | "replicate"
    round: int
    succeeded: bool
    detail: str = ""
    violations: Sequence[Violation] = ()
    objective: str = "default"

    def __str__(self) -> str:
        outcome = "ok" if self.succeeded else "failed"
        suffix = f" ({self.detail})" if self.detail else ""
        if self.objective != "default":
            suffix += f" [{self.objective}]"
        return f"round {self.round}: {self.stage} {outcome}{suffix}"


@dataclass
class VolumePlan:
    """Result of running the hierarchy on an assay DAG.

    ``assignment`` is feasible unless ``needs_regeneration`` is set, in
    which case it is the best infeasible attempt (the executor pairs it with
    run-time regeneration).  ``dag`` is the final — possibly transformed —
    graph the assignment refers to.
    """

    dag: AssayDAG
    assignment: VolumeAssignment | None
    status: str  # "dagsolve" | "lp" | "regeneration" | "failed"
    attempts: list[Attempt] = field(default_factory=list)
    transforms: list[TransformReport] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return self.status in ("dagsolve", "lp")

    @property
    def needs_regeneration(self) -> bool:
        return self.status == "regeneration"

    @property
    def was_transformed(self) -> bool:
        return bool(self.transforms)

    def summary(self) -> str:
        lines = [f"plan for {self.dag.name!r}: {self.status}"]
        lines += [f"  {attempt}" for attempt in self.attempts]
        lines += [f"  transform: {report}" for report in self.transforms]
        if self.assignment is not None:
            try:
                key, volume = self.assignment.min_edge()
            except VolumeError:
                lines.append("  no dispense: the assignment has no edges")
            else:
                lines.append(
                    f"  min dispense {float(volume):.4g} nl at "
                    f"{key[0]}->{key[1]}"
                )
        return "\n".join(lines)


class VolumeManager:
    """Figure 6 flowchart: DAGSolve -> LP -> cascade/replicate -> regenerate.

    Parameters mirror the paper's knobs:

    Args:
        limits: hardware capacity and least count.
        use_lp: fall back on LP when DAGSolve's assignment is infeasible.
        allow_cascading: rewrite extreme mix ratios (Section 3.4.1).
        allow_replication: rewrite heavily-used fluids (Section 3.4.2).
        output_tolerance: LP's optional output-to-output band.
        max_rounds: transform-and-retry iterations before giving up.
        max_total_nodes: PLoC resource budget for replication growth.
        objective: planning objective name or instance
            (:mod:`repro.core.objectives`) — ``"default"`` reproduces the
            paper's maximise-delivered-output plans, ``"waste"`` minimises
            loaded-minus-delivered volume at every stage of the hierarchy.

    The plan cache is not a planning knob: a compile hands its cache to
    :func:`repro.compiler.passes.run_compile`, which restores or stores
    whole plans around the hierarchy.
    """

    def __init__(
        self,
        limits: HardwareLimits,
        *,
        use_lp: bool = True,
        allow_cascading: bool = True,
        allow_replication: bool = True,
        output_tolerance: float | None = 0.1,
        max_rounds: int = 4,
        max_total_nodes: int | None = None,
        objective="default",
    ) -> None:
        self.limits = limits
        self.use_lp = use_lp
        self.allow_cascading = allow_cascading
        self.allow_replication = allow_replication
        self.output_tolerance = output_tolerance
        self.max_rounds = max_rounds
        self.max_total_nodes = max_total_nodes
        self.objective = resolve_objective(objective)

    def options_dict(self) -> dict:
        """The planning-relevant knobs, for cache fingerprinting."""
        return {
            "use_lp": self.use_lp,
            "allow_cascading": self.allow_cascading,
            "allow_replication": self.allow_replication,
            "output_tolerance": self.output_tolerance,
            "max_rounds": self.max_rounds,
            "max_total_nodes": self.max_total_nodes,
            "objective": self.objective.name,
        }

    # ------------------------------------------------------------------
    def plan(
        self,
        dag: AssayDAG,
        output_targets: Mapping[str, Number] | None = None,
    ) -> VolumePlan:
        """Run the hierarchy and return a :class:`VolumePlan`.

        The flowchart itself lives in the pass manager
        (:mod:`repro.compiler.passes.stages`: ``DAGSolvePass`` ->
        ``LPFallback`` -> ``CascadeTransform`` -> ``ReplicateTransform``
        inside ``HierarchyLoop``); this method is the un-instrumented
        front door for callers that plan a DAG outside a full compile.
        """
        # local import: the pass machinery consumes this module's types
        from ..compiler.passes.stages import run_hierarchy

        return run_hierarchy(dag, self, output_targets)

    # ------------------------------------------------------------------
    @staticmethod
    def _better(
        current: VolumeAssignment | None, candidate: VolumeAssignment
    ) -> VolumeAssignment:
        """Keep the attempt with the largest minimum dispensed volume."""
        if current is None:
            return candidate
        try:
            if candidate.min_edge_volume() > current.min_edge_volume():
                return candidate
        except VolumeError:
            return current
        return current
