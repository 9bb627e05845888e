"""Reference DAGSolve: both passes in plain Fraction arithmetic.

This is the paper's Figure 4 written out directly: the backward pass walks
the DAG in reverse topological order and derives every Vnorm with
:class:`fractions.Fraction` operations, and the dispensing pass scales the
Vnorms by one Fraction.  :mod:`repro.core.dagsolve` computes the same
numbers over scaled integers; the property suites assert the two agree bit
for bit.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction

from repro.core.dag import AssayDAG, NodeKind
from repro.core.dagsolve import (
    EdgeKey,
    Violation,
    VnormResult,
    VolumeAssignment,
    _check_solvable,
)
from repro.core.errors import DagError, VolumeError
from repro.core.limits import HardwareLimits, Number, as_fraction

__all__ = ["compute_vnorms", "dispense", "dagsolve", "violations"]


def compute_vnorms(
    dag: AssayDAG,
    output_targets: Mapping[str, Number] | None = None,
) -> VnormResult:
    """Backward pass of DAGSolve (paper Figure 4, lines 2-7).

    Args:
        dag: a validated assay DAG with no reachable unknown-volume nodes.
        output_targets: optional relative proportions for the output nodes
            (the paper's first artificial constraint allows arbitrary
            proportions; the default normalises every output to 1).

    Returns:
        A :class:`VnormResult` with exact rational Vnorms.
    """
    dag.validate()
    _check_solvable(dag)
    targets: dict[str, Fraction] = {}
    if output_targets:
        targets = {n: as_fraction(v) for n, v in output_targets.items()}
        for node_id, value in targets.items():
            if value <= 0:
                raise VolumeError(
                    f"output target for {node_id!r} must be positive"
                )
    output_ids = {node.id for node in dag.outputs()}
    unknown_targets = set(targets) - output_ids
    if unknown_targets:
        raise DagError(
            f"output targets given for non-output nodes {sorted(unknown_targets)}"
        )

    node_vnorm: dict[str, Fraction] = {}
    node_input_vnorm: dict[str, Fraction] = {}
    edge_vnorm: dict[EdgeKey, Fraction] = {}
    nodes_visited = 0
    edges_visited = 0

    for node_id in dag.reverse_topological_order():
        node = dag.node(node_id)
        if node.kind is NodeKind.EXCESS:
            # Computed when the producing node is visited (paper 3.4.1:
            # "the Vnorms of the excess edge and excess node are computed
            # after their source node's Vnorm is known").
            continue
        nodes_visited += 1
        used = Fraction(0)
        for edge in dag.out_edges(node_id):
            if edge.is_excess:
                continue
            used += edge_vnorm[edge.key]
            edges_visited += 1
        if node_id in output_ids:
            production = targets.get(node_id, Fraction(1))
        else:
            # Second artificial constraint: flow conservation, modulo the
            # statically-known excess share from cascading.
            production = used / (1 - node.excess_fraction)
        node_vnorm[node_id] = production
        if node.excess_fraction > 0:
            excess_amount = production * node.excess_fraction
            for edge in dag.out_edges(node_id):
                if edge.is_excess:
                    edge_vnorm[edge.key] = excess_amount
                    node_vnorm[edge.dst] = excess_amount
                    node_input_vnorm[edge.dst] = excess_amount
                    edges_visited += 1
        if node.kind in (NodeKind.INPUT, NodeKind.CONSTRAINED_INPUT):
            node_input_vnorm[node_id] = production
            continue
        if node.unknown_volume:
            # A partition sink whose output is measured at run time: the
            # partition dispenses its *input*, so normalise that side.
            fraction_out = Fraction(1)
        else:
            fraction_out = node.output_fraction
            if fraction_out is None or fraction_out <= 0:
                raise DagError(
                    f"node {node_id!r} lacks a positive output_fraction"
                )
        input_total = production / fraction_out
        node_input_vnorm[node_id] = input_total
        for edge in dag.in_edges(node_id):
            edge_vnorm[edge.key] = edge.fraction * input_total
            edges_visited += 1

    return VnormResult(
        node_vnorm=node_vnorm,
        node_input_vnorm=node_input_vnorm,
        edge_vnorm=edge_vnorm,
        nodes_visited=nodes_visited,
        edges_visited=edges_visited,
    )


def _constrained_scale(dag: AssayDAG, vnorms: VnormResult) -> Fraction | None:
    """Scale cap imposed by measured constrained inputs (Section 3.5).

    Each CONSTRAINED_INPUT node with a measured ``available_volume`` caps the
    global scale at ``available / Vnorm``; the dispensing pass takes the
    minimum over all such caps and the capacity-derived default.
    """
    cap: Fraction | None = None
    for node in dag.nodes():
        if node.kind is not NodeKind.CONSTRAINED_INPUT:
            continue
        if node.available_volume is None:
            raise DagError(
                f"constrained input {node.id!r} has no measured volume; "
                "set node.available_volume before dispensing"
            )
        vnorm = vnorms.node_vnorm[node.id]
        if vnorm == 0:
            continue
        ratio = node.available_volume / vnorm
        cap = ratio if cap is None else min(cap, ratio)
    return cap


def _floor_scale(
    dag: AssayDAG, vnorms: VnormResult, limits: HardwareLimits
) -> Fraction | None:
    """The smallest feasible scale (waste objective's dispensing anchor).

    The scale below which *some* feasibility lower bound breaks: every
    non-excess edge must still clear the least count, and every FU minimum
    must still be met.  ``None`` when the DAG imposes no lower bound.
    """
    floor: Fraction | None = None
    least_count = limits.least_count
    for edge in dag.edges():
        if edge.is_excess:
            continue
        vnorm = vnorms.edge_vnorm[edge.key]
        if vnorm <= 0:
            continue
        bound = least_count / vnorm
        if floor is None or bound > floor:
            floor = bound
    for node in dag.nodes():
        if node.min_volume is None:
            continue
        held = vnorms.node_input_vnorm[node.id]
        if node.kind in (NodeKind.INPUT, NodeKind.CONSTRAINED_INPUT):
            held = vnorms.node_vnorm[node.id]
        if held <= 0:
            continue
        bound = node.min_volume / held
        if floor is None or bound > floor:
            floor = bound
    return floor


def dispense(
    dag: AssayDAG,
    vnorms: VnormResult,
    limits: HardwareLimits,
    *,
    objective=None,
) -> VolumeAssignment:
    """Forward (dispensing) pass of DAGSolve (paper Figure 4, lines 8-11).

    Anchors the node with the largest Vnorm at its capacity (the paper's
    ``max_default``) and scales every other node and edge proportionally,
    honouring per-node capacity overrides and measured constrained inputs.

    When ``objective`` (a :class:`~repro.core.objectives.PlanningObjective`)
    asks for scale minimisation (``--objective waste``), the pass instead
    settles at the smallest feasible scale — the capacity anchor stays an
    upper cap, but no node is filled to capacity just because capacity is
    there, so unused headroom is never loaded.  The feasibility window is
    unchanged: a DAG infeasible under the default anchor is dispensed at
    the anchor so its violations read identically.
    """
    max_vnorm = vnorms.max_vnorm()
    if max_vnorm <= 0:
        raise VolumeError("DAG has no positive Vnorm; nothing to dispense")
    scale = None
    for node in dag.nodes():
        capacity = node.capacity or limits.max_capacity
        load = max(
            vnorms.node_vnorm[node.id], vnorms.node_input_vnorm[node.id]
        )
        if load == 0:
            continue
        bound = capacity / load
        scale = bound if scale is None else min(scale, bound)
    assert scale is not None
    constrained_cap = _constrained_scale(dag, vnorms)
    if constrained_cap is not None:
        scale = min(scale, constrained_cap)
    if objective is not None:
        from repro.core.objectives import resolve_objective

        objective = resolve_objective(objective)
    if objective is not None and objective.minimize_scale:
        floor = _floor_scale(dag, vnorms, limits)
        if floor is not None and floor < scale:
            scale = floor

    node_volume = {n: v * scale for n, v in vnorms.node_vnorm.items()}
    node_input_volume = {
        n: v * scale for n, v in vnorms.node_input_vnorm.items()
    }
    edge_volume = {key: v * scale for key, v in vnorms.edge_vnorm.items()}
    return VolumeAssignment(
        dag=dag,
        limits=limits,
        node_volume=node_volume,
        node_input_volume=node_input_volume,
        edge_volume=edge_volume,
        scale=scale,
        method="dagsolve",
        vnorms=vnorms,
    )


def dagsolve(
    dag: AssayDAG,
    limits: HardwareLimits,
    output_targets: Mapping[str, Number] | None = None,
    *,
    objective=None,
) -> VolumeAssignment:
    """Both reference passes: :func:`compute_vnorms` then :func:`dispense`."""
    vnorms = compute_vnorms(dag, output_targets)
    return dispense(dag, vnorms, limits, objective=objective)


def violations(assignment: VolumeAssignment) -> list[Violation]:
    """:meth:`VolumeAssignment.violations` in Fraction comparisons.

    Excess edges are exempt from the least-count check; the slack
    (``tolerance``) widens every bound.
    """
    found: list[Violation] = []
    slack = assignment.tolerance
    least_count = assignment.limits.least_count
    floor = least_count - slack
    for edge in assignment.dag.edges():
        volume = assignment.edge_volume[edge.key]
        if not edge.is_excess and volume < floor:
            found.append(
                Violation(
                    "underflow",
                    f"{edge.src}->{edge.dst}",
                    volume,
                    least_count,
                )
            )
    max_capacity = assignment.limits.max_capacity
    default_ceiling = max_capacity + slack
    for node in assignment.dag.nodes():
        capacity = node.capacity or max_capacity
        ceiling = capacity + slack if node.capacity else default_ceiling
        load = max(
            assignment.node_volume[node.id],
            assignment.node_input_volume[node.id],
        )
        if load > ceiling:
            found.append(Violation("overflow", node.id, load, capacity))
        if node.min_volume is not None:
            held = assignment.node_input_volume[node.id]
            if node.kind in (NodeKind.INPUT, NodeKind.CONSTRAINED_INPUT):
                held = assignment.node_volume[node.id]
            minimum = node.min_volume
            if held < (minimum - slack if slack else minimum):
                found.append(Violation("min-volume", node.id, held, minimum))
    return found
