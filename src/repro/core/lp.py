"""LP solution of RVol via HiGHS (paper Section 3.2).

The paper used Matlab's ``linprog`` (LIPSOL, an interior-point solver); we
substitute HiGHS through scipy's ``milp`` with no integrality constraint —
the same algorithmic class with the same asymptotic behaviour, which is
what the Table 2 runtime comparison is about.  ``milp`` hands the model's
rows and bounds to HiGHS as they are; ``linprog`` would first re-clean
and re-parse them on every solve.  The solve turns HiGHS's output flag
off, as ``linprog`` does: on a degenerate LP (several optimal vertices,
such as the waste objective's zero-waste face) HiGHS pivots to a
different optimal vertex with the flag on, so the flag keeps the plans
bit-identical to ``linprog``'s.

The entry point :func:`lp_solve` accepts the same ``(dag, limits)`` pair as
:func:`repro.core.dagsolve.dagsolve` and returns the same
:class:`~repro.core.dagsolve.VolumeAssignment`, so the volume-management
hierarchy can fall back from one to the other transparently.
"""

from __future__ import annotations

import warnings
from fractions import Fraction

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from .dag import AssayDAG
from .dagsolve import VolumeAssignment, assignment_from_counts, common_basis
from .errors import InfeasibleError, SolverError
from .limits import HardwareLimits
from .lpmodel import LPModel, build_lp_model

__all__ = [
    "lp_solve",
    "solve_model",
    "assignment_from_edge_volumes",
    "highs_problem",
]

EdgeKey = tuple[str, str]


def assignment_from_edge_volumes(
    dag: AssayDAG,
    limits: HardwareLimits,
    edge_volume: dict[EdgeKey, Fraction],
    *,
    method: str,
    meta: dict[str, object] | None = None,
    tolerance: Fraction = Fraction(0),
) -> VolumeAssignment:
    """Derive node volumes from edge volumes and package an assignment.

    Node production for a source is its total draw; for an internal node it
    is ``output_fraction`` times the inbound total.  Excess edges, if the DAG
    has them, receive the node's production surplus (LP treats discarding as
    slack, DAGSolve as an explicit edge — this keeps the two representations
    interchangeable).  The volumes are put over one common denominator
    (:func:`~repro.core.dagsolve.common_basis`) and derived on integers.
    """
    (table,), __ = common_basis((edge_volume,))
    return assignment_from_counts(
        dag,
        limits,
        table.ints,
        Fraction(*table.basis),
        method=method,
        meta=meta,
        tolerance=tolerance,
    )


def highs_problem(
    model: LPModel, unit: float = 1.0
) -> tuple[list[LinearConstraint], Bounds]:
    """The model's rows and variable bounds as ``milp`` arguments.

    The variables are measured in ``unit``: a solver variable ``k`` stands
    for the edge volume ``unit * k``, so every row coefficient is scaled
    by ``unit`` and every bound divided by it (the IVol ILP counts least
    counts this way).  Inequality rows come first, then equality rows; an
    empty system contributes no constraint.
    """
    constraints = []
    if model.a_ub.shape[0]:
        constraints.append(
            LinearConstraint(model.a_ub * unit, -np.inf, model.b_ub)
        )
    if model.a_eq.shape[0]:
        constraints.append(
            LinearConstraint(model.a_eq * unit, model.b_eq, model.b_eq)
        )
    lower = np.array([lo for lo, __ in model.bounds], dtype=float)
    upper = np.array(
        [np.inf if hi is None else hi for __, hi in model.bounds], dtype=float
    )
    return constraints, Bounds(lower / unit, upper / unit)


def solve_model(model: LPModel) -> VolumeAssignment:
    """Solve a built :class:`LPModel` and package the result.

    Raises:
        InfeasibleError: HiGHS proved the constraint system infeasible.
        SolverError: any other solver failure (unbounded, numerical, ...).
    """
    constraints, bounds = highs_problem(model)
    with warnings.catch_warnings():
        # ``milp`` passes the flag to HiGHS verbatim but warns that it
        # does not know it.
        warnings.filterwarnings(
            "ignore",
            message=r"Unrecognized options detected: \{'output_flag'\}",
            category=RuntimeWarning,
        )
        result = milp(
            model.objective,
            constraints=constraints,
            bounds=bounds,
            options={"output_flag": False},
        )
    if result.status == 2:
        raise InfeasibleError(
            f"LP infeasible for DAG {model.dag.name!r}: {result.message}"
        )
    if not result.success:
        raise SolverError(
            f"LP solver failed for DAG {model.dag.name!r} "
            f"(status {result.status}): {result.message}"
        )
    edge_volume = {
        key: Fraction(str(float(result.x[i])))
        for key, i in model.var_index.items()
    }
    meta: dict[str, object] = {
        "objective": -float(result.fun),
        "n_constraints": model.n_constraints,
        "constraint_classes": model.counts_by_class(),
        "dagsolve_constraints": model.meta.get("dagsolve_constraints", False),
    }
    planning_objective = model.meta.get("planning_objective")
    if planning_objective not in (None, "default"):
        meta["planning_objective"] = planning_objective
    return assignment_from_edge_volumes(
        model.dag,
        model.limits,
        edge_volume,
        method="lp",
        # HiGHS works in doubles: allow a relative 1e-7 feasibility slack so
        # exact-fraction checks do not flag float fuzz as violations.
        tolerance=model.limits.max_capacity * Fraction(1, 10_000_000),
        meta=meta,
    )


def lp_solve(
    dag: AssayDAG,
    limits: HardwareLimits,
    *,
    output_tolerance: float | None = 0.1,
    dagsolve_constraints: bool = False,
    objective=None,
) -> VolumeAssignment:
    """Build and solve the RVol LP for ``dag``.

    ``dagsolve_constraints=True`` reproduces the Section 4.3 ablation where
    DAGSolve's artificial constraints are added to the LP; ``objective``
    selects the planning objective building the cost vector
    (:mod:`repro.core.objectives`).
    """
    model = build_lp_model(
        dag,
        limits,
        output_tolerance=output_tolerance,
        dagsolve_constraints=dagsolve_constraints,
        objective=objective,
    )
    return solve_model(model)
