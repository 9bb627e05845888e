"""Reference LP solve: the built model through ``scipy.optimize.linprog``.

This is :func:`repro.core.lp.solve_model` as it was before the solve went
to HiGHS directly: it hands the model's matrices, right-hand sides and
per-variable bound pairs to ``linprog(method="highs")`` and maps the
result status onto the compiler's error classes.  The LP equivalence
suite (``tests/core/test_lp_oracle.py``) asserts that production yields
bit-identical edge volumes and the same error class on every model the
compile-cold corpus solves and on random layered DAGs.
"""

from __future__ import annotations

from fractions import Fraction

from scipy.optimize import linprog

from repro.core.errors import InfeasibleError, SolverError
from repro.core.lpmodel import LPModel

__all__ = ["solve_model"]

EdgeKey = tuple[str, str]


def solve_model(model: LPModel) -> dict[EdgeKey, Fraction]:
    """Solve ``model`` with ``linprog``; returns the edge volumes.

    Raises:
        InfeasibleError: HiGHS proved the constraint system infeasible.
        SolverError: any other solver failure (unbounded, numerical, ...).
    """
    result = linprog(
        model.objective,
        A_ub=model.a_ub if model.a_ub.shape[0] else None,
        b_ub=model.b_ub if model.b_ub.size else None,
        A_eq=model.a_eq if model.a_eq.shape[0] else None,
        b_eq=model.b_eq if model.b_eq.size else None,
        bounds=model.bounds,
        method="highs",
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
    return {
        key: Fraction(str(float(result.x[i])))
        for key, i in model.var_index.items()
    }
