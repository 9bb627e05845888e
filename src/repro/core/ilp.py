"""ILP solution of IVol via scipy's HiGHS ``milp`` (paper Section 3.2).

IVol requires every dispensed volume to be an **integer multiple of the
least count**.  We substitute variables ``x_e = least_count * k_e`` with
``k_e`` integral, scale the RVol constraint system accordingly, and hand the
result to HiGHS branch-and-cut (the paper used the LP_Solve 5.5 MILP mode).

The paper's finding — ILP matches LP on the small glucose assay but "ran for
hours without generating a solution" on the enzyme assay — is reproduced in
``benchmarks/bench_ilp_vs_lp.py`` with a configurable time limit standing in
for "hours".
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from scipy.optimize import Bounds, milp

from .dag import AssayDAG
from .dagsolve import VolumeAssignment, assignment_from_counts
from .errors import InfeasibleError, SolverError
from .limits import HardwareLimits
from .lp import highs_problem
from .lpmodel import LPModel, build_lp_model

__all__ = ["ilp_solve", "solve_model_ilp"]


def solve_model_ilp(
    model: LPModel,
    *,
    time_limit: float | None = None,
) -> VolumeAssignment:
    """Solve the integer (IVol) variant of a built model.

    Args:
        model: an :class:`LPModel` from :func:`build_lp_model`.
        time_limit: seconds before HiGHS gives up; a timeout raises
            :class:`SolverError` (the reproduction of "ran for hours").
    """
    least = float(model.limits.least_count)
    # x = least * k: the rows scale by the least count, and the bounds,
    # counted in least counts, narrow to the integers inside them.
    constraints, bounds = highs_problem(model, least)
    options = {}
    if time_limit is not None:
        options["time_limit"] = time_limit
    result = milp(
        c=model.objective * least,
        constraints=constraints,
        integrality=np.ones(model.n_variables),
        bounds=Bounds(np.ceil(bounds.lb - 1e-9), np.floor(bounds.ub)),
        options=options,
    )
    if result.status == 2:
        raise InfeasibleError(
            f"ILP infeasible for DAG {model.dag.name!r}: {result.message}"
        )
    if result.status == 1 or result.x is None:
        raise SolverError(
            f"ILP did not finish for DAG {model.dag.name!r} "
            f"(status {result.status}): {result.message}"
        )
    counts = {key: round(result.x[i]) for key, i in model.var_index.items()}
    return assignment_from_counts(
        model.dag,
        model.limits,
        counts,
        model.limits.least_count,
        method="ilp",
        tolerance=model.limits.max_capacity * Fraction(1, 10_000_000),
        meta={
            "objective": -float(result.fun) if result.fun is not None else None,
            "n_constraints": model.n_constraints,
            "mip_gap": float(getattr(result, "mip_gap", 0.0) or 0.0),
        },
    )


def ilp_solve(
    dag: AssayDAG,
    limits: HardwareLimits,
    *,
    output_tolerance: float | None = 0.1,
    time_limit: float | None = None,
) -> VolumeAssignment:
    """Build and solve the IVol ILP for ``dag``."""
    model = build_lp_model(dag, limits, output_tolerance=output_tolerance)
    return solve_model_ilp(model, time_limit=time_limit)
