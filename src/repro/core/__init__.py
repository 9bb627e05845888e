"""Core volume-management algorithms (the paper's contribution).

Public surface:

* :class:`AssayDAG` / :class:`Node` / :class:`Edge` — the assay IR;
* :func:`dagsolve` — the linear-time solver (Section 3.3);
* :func:`lp_solve` / :func:`ilp_solve` — the LP/ILP formulations (3.2);
* :func:`round_assignment` — RVol -> IVol rounding (4.2);
* :func:`cascade_extreme_mixes` / :func:`iterative_replication` — the DAG
  transforms for extreme ratios and numerous uses (3.4);
* :class:`VolumeManager` — the Figure 6 hierarchy;
* :func:`partition_unknown_volumes` / :class:`RuntimePlanner` — the
  statically-unknown case (3.5).
"""

from .cascading import (
    CascadeReport,
    cascade_extreme_mixes,
    cascade_mix,
    find_extreme_mixes,
    is_extreme_mix,
    stage_factors,
)
from .dag import AssayDAG, Edge, Node, NodeKind, fractions_from_ratio
from .dagsolve import (
    VnormResult,
    Violation,
    VolumeAssignment,
    compute_vnorms,
    dagsolve,
    dispense,
    scale_for_required_outputs,
)
from .errors import (
    CycleError,
    DagError,
    InfeasibleError,
    OverflowError_,
    PartitionError,
    RatioError,
    ResourceExhaustedError,
    SolverError,
    UnderflowError,
    VolumeError,
)
from .hierarchy import Attempt, VolumeManager, VolumePlan
from .ilp import ilp_solve
from .limits import PAPER_LIMITS, HardwareLimits, as_fraction
from .lp import lp_solve
from .lpmodel import LPModel, build_lp_model
from .partition import (
    ConstrainedInputSpec,
    Partition,
    PartitionedAssay,
    measurement_epochs,
    partition_unknown_volumes,
)
from .report import FluidRequirements, FluidUsage, fluid_requirements
from .replication import (
    ReplicationReport,
    iterative_replication,
    needed_copies,
    replicate_node,
)
from .rounding import (
    max_ratio_error,
    mean_ratio_error,
    ratio_errors,
    round_assignment,
    round_assignment_ratio_preserving,
)
from .runtime_assign import RuntimePlanner, RuntimeSession

__all__ = [
    # dag
    "AssayDAG",
    "Node",
    "Edge",
    "NodeKind",
    "fractions_from_ratio",
    # limits
    "HardwareLimits",
    "PAPER_LIMITS",
    "as_fraction",
    # dagsolve
    "VnormResult",
    "Violation",
    "VolumeAssignment",
    "compute_vnorms",
    "dispense",
    "dagsolve",
    "scale_for_required_outputs",
    # lp / ilp
    "LPModel",
    "build_lp_model",
    "lp_solve",
    "ilp_solve",
    # rounding
    "round_assignment",
    "FluidRequirements",
    "FluidUsage",
    "fluid_requirements",
    "round_assignment_ratio_preserving",
    "ratio_errors",
    "max_ratio_error",
    "mean_ratio_error",
    # transforms
    "CascadeReport",
    "is_extreme_mix",
    "find_extreme_mixes",
    "stage_factors",
    "cascade_mix",
    "cascade_extreme_mixes",
    "ReplicationReport",
    "replicate_node",
    "needed_copies",
    "iterative_replication",
    # hierarchy
    "VolumeManager",
    "VolumePlan",
    "Attempt",
    # statically-unknown
    "ConstrainedInputSpec",
    "Partition",
    "PartitionedAssay",
    "measurement_epochs",
    "partition_unknown_volumes",
    "RuntimePlanner",
    "RuntimeSession",
    # errors
    "VolumeError",
    "DagError",
    "CycleError",
    "RatioError",
    "UnderflowError",
    "OverflowError_",
    "InfeasibleError",
    "ResourceExhaustedError",
    "PartitionError",
    "SolverError",
]
