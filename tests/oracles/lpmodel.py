"""Reference LP model builder: every row derived from scratch.

This builds the Section 3.2 constraint system in one pass over the DAG,
with Fraction coefficients floated as each row is added, reading the
live edges where :class:`repro.core.lpmodel.IncrementalLPBuilder` reads
the DAG's node records.  The identity suite asserts both produce the
same model (variable order, CSR arrays, bounds and row labels) under
every option combination and objective.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

import numpy as np
from scipy import sparse

from repro.core.dag import AssayDAG, Edge, NodeKind
from repro.core.errors import DagError
from repro.core.limits import HardwareLimits
from repro.core.lpmodel import (
    CLASS_CAPACITY,
    CLASS_FLOW_CONSERVATION,
    CLASS_MIN_VOLUME,
    CLASS_NON_DEFICIT,
    CLASS_OUTPUT_EQUAL,
    CLASS_OUTPUT_TO_OUTPUT,
    CLASS_RATIO,
    ConstraintRow,
    EdgeKey,
    LPModel,
)
from repro.core.objectives import resolve_objective

__all__ = ["build_lp_model"]


class _MatrixBuilder:
    """Accumulates sparse rows with labels."""

    def __init__(self, n_vars: int) -> None:
        self.n_vars = n_vars
        self.data: list[float] = []
        self.rows: list[int] = []
        self.cols: list[int] = []
        self.rhs: list[float] = []
        self.labels: list[ConstraintRow] = []

    def add_row(
        self,
        coefficients: Sequence[tuple[int, Fraction]],
        rhs: Fraction,
        cls: str,
        description: str,
        *,
        equality: bool,
    ) -> None:
        row_index = len(self.rhs)
        for col, value in coefficients:
            if value == 0:
                continue
            self.rows.append(row_index)
            self.cols.append(col)
            self.data.append(float(value))
        self.rhs.append(float(rhs))
        self.labels.append(ConstraintRow(cls, description, equality))

    def matrices(self) -> tuple[sparse.csr_matrix, np.ndarray]:
        matrix = sparse.coo_matrix(
            (self.data, (self.rows, self.cols)),
            shape=(len(self.rhs), self.n_vars),
        ).tocsr()
        return matrix, np.asarray(self.rhs, dtype=float)


def build_lp_model(
    dag: AssayDAG,
    limits: HardwareLimits,
    *,
    output_tolerance: float | None = 0.1,
    dagsolve_constraints: bool = False,
    min_volume_bounds: bool = True,
    objective=None,
) -> LPModel:
    """Build the RVol linear model for ``dag``.

    Args:
        dag: validated assay DAG; unknown-volume nodes with downstream uses
            must have been partitioned away first, exactly as for DAGSolve.
        limits: hardware capacity and least count.
        output_tolerance: the optional class-6 bound (0.1 reproduces
            Figure 3's 10% band); ``None`` omits the class entirely.
        objective: a :class:`~repro.core.objectives.PlanningObjective` (or
            its name) that builds the cost vector; ``None`` / ``"default"``
            reproduces the paper's maximise-total-output objective exactly.
        dagsolve_constraints: also emit DAGSolve's two artificial constraint
            sets (flow conservation + output equalisation) for the
            Section 4.3 ablation.
        min_volume_bounds: when False, replace the class-1 lower bounds
            with 0.  Used by the runtime benchmark so infeasible-by-bounds
            instances (raw enzyme) still exercise a full LP solve, matching
            the paper's timing methodology (their LIPSOL runs reported a
            time for enzyme even though the result underflowed).
    """
    dag.validate()
    for node in dag.nodes():
        if node.unknown_volume and dag.out_degree(node.id) > 0:
            raise DagError(
                f"node {node.id!r} has unknown output volume and downstream "
                "uses; partition the DAG before building the LP"
            )

    # Excess machinery is DAGSolve-specific: LP's non-deficit constraints
    # already allow discarding surplus production, so cascaded DAGs are
    # modelled without their excess edges.
    edges = [edge for edge in dag.edges() if not edge.is_excess]
    var_index: dict[EdgeKey, int] = {
        edge.key: i for i, edge in enumerate(edges)
    }
    n_vars = len(var_index)

    def out_vars(node_id: str) -> list[tuple[int, Edge]]:
        return [
            (var_index[e.key], e)
            for e in dag.out_edges(node_id)
            if not e.is_excess
        ]

    def in_vars(node_id: str) -> list[tuple[int, Edge]]:
        return [
            (var_index[e.key], e)
            for e in dag.in_edges(node_id)
            if not e.is_excess
        ]

    ub = _MatrixBuilder(n_vars)
    eq = _MatrixBuilder(n_vars)

    # -- class 1: minimum volume, as variable lower bounds ----------------
    bounds: list[tuple[float, float | None]] = []
    for edge in edges:
        if not min_volume_bounds:
            bounds.append((0.0, float(limits.max_capacity)))
            continue
        lo = limits.least_count
        dst = dag.node(edge.dst)
        if dst.min_volume is not None and dag.in_degree(edge.dst) == 1:
            lo = max(lo, dst.min_volume)
        bounds.append((float(lo), float(limits.max_capacity)))

    output_nodes = [n for n in dag.outputs()]
    output_ids = {n.id for n in output_nodes}

    for node in dag.nodes():
        if node.kind is NodeKind.EXCESS:
            continue
        inbound = in_vars(node.id)
        outbound = out_vars(node.id)
        is_source = node.kind in (NodeKind.INPUT, NodeKind.CONSTRAINED_INPUT)

        # -- class 2: maximum capacity ---------------------------------
        capacity = node.capacity or limits.max_capacity
        if is_source:
            if node.kind is NodeKind.CONSTRAINED_INPUT:
                if node.available_volume is not None:
                    capacity = min(capacity, node.available_volume)
            if outbound:
                ub.add_row(
                    [(i, Fraction(1)) for i, __ in outbound],
                    Fraction(capacity),
                    CLASS_CAPACITY,
                    f"{node.id}: total draw <= {capacity}",
                    equality=False,
                )
        elif inbound:
            ub.add_row(
                [(i, Fraction(1)) for i, __ in inbound],
                Fraction(capacity),
                CLASS_CAPACITY,
                f"{node.id}: total input <= {capacity}",
                equality=False,
            )
            if node.min_volume is not None and len(inbound) > 1:
                # FU minimum over the whole load (class 1 extension).
                ub.add_row(
                    [(i, Fraction(-1)) for i, __ in inbound],
                    -Fraction(node.min_volume),
                    CLASS_MIN_VOLUME,
                    f"{node.id}: total input >= {node.min_volume}",
                    equality=False,
                )

        # -- classes 3+5: non-deficit with relative output-to-input ------
        if not is_source and node.id not in output_ids and outbound:
            fraction_out = node.output_fraction or Fraction(1)
            coefficients = [(i, Fraction(1)) for i, __ in outbound]
            coefficients += [(i, -fraction_out) for i, __ in inbound]
            ub.add_row(
                coefficients,
                Fraction(0),
                CLASS_NON_DEFICIT,
                f"{node.id}: use <= {fraction_out} * input",
                equality=False,
            )
            if dagsolve_constraints:
                eq.add_row(
                    coefficients,
                    Fraction(0),
                    CLASS_FLOW_CONSERVATION,
                    f"{node.id}: use == {fraction_out} * input",
                    equality=True,
                )

        # -- class 4: mix-ratio equalities -------------------------------
        if len(inbound) > 1:
            anchor_var, anchor_edge = inbound[0]
            for other_var, other_edge in inbound[1:]:
                # anchor / f_anchor == other / f_other
                eq.add_row(
                    [
                        (anchor_var, other_edge.fraction),
                        (other_var, -anchor_edge.fraction),
                    ],
                    Fraction(0),
                    CLASS_RATIO,
                    (
                        f"{node.id}: {anchor_edge.src} vs {other_edge.src} "
                        f"in ratio {anchor_edge.fraction}:{other_edge.fraction}"
                    ),
                    equality=True,
                )

    # -- objective: cost vector delegated to the planning objective -------
    planning = resolve_objective(objective)
    cost = np.zeros(n_vars)
    for key, value in planning.lp_objective_pairs(dag, output_nodes):
        cost[var_index[key]] -= value  # linprog minimises

    # -- class 6: relative output-to-output -------------------------------
    def output_volume_coefficients(node_id: str) -> list[tuple[int, Fraction]]:
        node = dag.node(node_id)
        fraction_out = node.output_fraction or Fraction(1)
        return [(i, fraction_out) for i, __ in in_vars(node_id)]

    real_outputs = [
        n.id
        for n in output_nodes
        if n.kind not in (NodeKind.INPUT, NodeKind.CONSTRAINED_INPUT)
        and dag.in_degree(n.id) > 0
    ]
    if len(real_outputs) > 1:
        anchor = real_outputs[0]
        anchor_coefficients = output_volume_coefficients(anchor)
        for other in real_outputs[1:]:
            other_coefficients = output_volume_coefficients(other)
            if output_tolerance is not None:
                low = Fraction(str(1 - output_tolerance))
                high = Fraction(str(1 + output_tolerance))
                # low * other <= anchor  <=>  low*other - anchor <= 0
                ub.add_row(
                    [(i, low * c) for i, c in other_coefficients]
                    + [(i, -c) for i, c in anchor_coefficients],
                    Fraction(0),
                    CLASS_OUTPUT_TO_OUTPUT,
                    f"{low} * V({other}) <= V({anchor})",
                    equality=False,
                )
                # anchor <= high * other
                ub.add_row(
                    [(i, c) for i, c in anchor_coefficients]
                    + [(i, -high * c) for i, c in other_coefficients],
                    Fraction(0),
                    CLASS_OUTPUT_TO_OUTPUT,
                    f"V({anchor}) <= {high} * V({other})",
                    equality=False,
                )
            if dagsolve_constraints:
                eq.add_row(
                    [(i, c) for i, c in anchor_coefficients]
                    + [(i, -c) for i, c in other_coefficients],
                    Fraction(0),
                    CLASS_OUTPUT_EQUAL,
                    f"V({anchor}) == V({other})",
                    equality=True,
                )

    a_ub, b_ub = ub.matrices()
    a_eq, b_eq = eq.matrices()
    return LPModel(
        dag=dag,
        limits=limits,
        var_index=var_index,
        objective=cost,
        a_ub=a_ub,
        b_ub=b_ub,
        a_eq=a_eq,
        b_eq=b_eq,
        bounds=bounds,
        rows_ub=ub.labels,
        rows_eq=eq.labels,
        meta={
            "output_tolerance": output_tolerance,
            "dagsolve_constraints": dagsolve_constraints,
            "planning_objective": planning.name,
        },
    )
