"""Reference rounding: RVol -> IVol in plain Fraction arithmetic.

This is :mod:`repro.core.rounding` as it was before rounding moved onto
integer least-count steps: every edge is quantised with
:meth:`~repro.core.limits.HardwareLimits.quantize`, the deficit repair
compares and shaves :class:`fractions.Fraction` volumes, and node volumes
come from :func:`assignment_from_edge_volumes`, the Fraction derivation
:mod:`repro.core.lp` used before it, too, moved onto integers.  The
equivalence properties (``tests/properties/test_back_half_equivalence.py``)
assert that production rounds to exactly these tables, key order included.
"""

from __future__ import annotations

from fractions import Fraction

from repro.core.dag import AssayDAG, NodeKind
from repro.core.dagsolve import VolumeAssignment
from repro.core.limits import HardwareLimits
from repro.core.rounding import ratio_errors

__all__ = [
    "assignment_from_edge_volumes",
    "round_assignment",
    "round_assignment_ratio_preserving",
    "max_ratio_error",
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
    interchangeable).
    """
    node_volume: dict[str, Fraction] = {}
    node_input_volume: dict[str, Fraction] = {}
    volumes = dict(edge_volume)
    for node in dag.nodes():
        if node.kind is NodeKind.EXCESS:
            continue
        inbound = [e for e in dag.in_edges(node.id) if not e.is_excess]
        outbound = [e for e in dag.out_edges(node.id) if not e.is_excess]
        in_total = sum((volumes[e.key] for e in inbound), Fraction(0))
        out_total = sum((volumes[e.key] for e in outbound), Fraction(0))
        if node.kind in (NodeKind.INPUT, NodeKind.CONSTRAINED_INPUT):
            production = out_total
            node_input_volume[node.id] = production
        else:
            fraction_out = node.output_fraction or Fraction(1)
            production = fraction_out * in_total
            node_input_volume[node.id] = in_total
        node_volume[node.id] = production
        for excess_edge in dag.out_edges(node.id):
            if excess_edge.is_excess:
                surplus = max(Fraction(0), production - out_total)
                volumes[excess_edge.key] = surplus
                node_volume[excess_edge.dst] = surplus
                node_input_volume[excess_edge.dst] = surplus
    return VolumeAssignment(
        dag=dag,
        limits=limits,
        node_volume=node_volume,
        node_input_volume=node_input_volume,
        edge_volume=volumes,
        scale=None,
        method=method,
        tolerance=tolerance,
        meta=meta or {},
    )


def round_assignment(assignment: VolumeAssignment) -> VolumeAssignment:
    """Quantise every edge volume to the nearest least-count multiple.

    Node volumes are recomputed from the rounded edges so the result is
    internally consistent; the caller should re-check
    :meth:`VolumeAssignment.violations` because rounding down can in
    principle re-introduce underflow (the paper did not observe this and
    neither do our benchmarks, but the check is how one would find out).
    """
    limits = assignment.limits
    dag = assignment.dag
    rounded: dict[EdgeKey, Fraction] = {}
    for edge in dag.edges():
        if edge.is_excess:
            continue
        rounded[edge.key] = limits.quantize(assignment.edge_volume[edge.key])
    _repair_deficits(dag, rounded, limits, dict(assignment.edge_volume))
    result = assignment_from_edge_volumes(
        assignment.dag,
        limits,
        rounded,
        method=f"{assignment.method}+rounded",
        meta=dict(assignment.meta),
    )
    result.meta["rounded_from"] = assignment.method
    return result


def _repair_deficits(
    dag: AssayDAG,
    rounded: dict[EdgeKey, Fraction],
    limits: HardwareLimits,
    exact: dict[EdgeKey, Fraction],
) -> None:
    """Shave outbound edges until every node's uses fit its production.

    Independent rounding can leave a node's uses summing to slightly more
    than its (recomputed) production — half a least count per edge at
    worst.  Walk in topological order and decrement outbound edges until
    every node is executable, preferring the edge whose rounded volume
    currently sits highest *above* its exact value (a free correction) and
    breaking ties toward the largest edge (smallest relative harm).
    """
    least = limits.least_count

    def shave(edges, budget: Fraction) -> None:
        guard = 0
        while sum((rounded[e.key] for e in edges), Fraction(0)) > budget:
            victim = max(
                edges,
                key=lambda e: (
                    rounded[e.key] - exact.get(e.key, Fraction(0)),
                    rounded[e.key],
                ),
            )
            if rounded[victim.key] <= 0 or guard > 4 * len(edges) + 16:
                break  # cannot repair further; violations() will report it
            rounded[victim.key] -= least
            guard += 1

    for node_id in dag.topological_order():
        node = dag.node(node_id)
        inbound = [e for e in dag.in_edges(node_id) if not e.is_excess]
        outbound = [e for e in dag.out_edges(node_id) if not e.is_excess]
        capacity = node.capacity or limits.max_capacity
        if inbound:
            # a consumer cannot hold more than its unit's capacity
            shave(inbound, capacity)
        if not outbound:
            continue
        if not inbound:
            # a source cannot dispense more than one reservoir holds
            shave(outbound, capacity)
            continue
        fraction_out = node.output_fraction or Fraction(1)
        production = fraction_out * sum(
            (rounded[e.key] for e in inbound), Fraction(0)
        )
        shave(outbound, production)


def round_assignment_ratio_preserving(
    assignment: VolumeAssignment,
) -> VolumeAssignment:
    """Largest-remainder (Hamilton) rounding — the paper's deferred
    "more sophisticated rounding technique".

    Per consumer node, every inbound edge is either floored or ceiled to a
    least-count step; among all consistent totals the one whose
    greedy apportionment (leftover steps to the edges with the largest
    relative-error reduction) minimises the worst relative ratio deviation
    is chosen, with ties broken toward the exact total.  Guarantees:

    * every edge is within one least count of its exact volume;
    * a mix whose exact shares already realise the declared ratio at some
      reachable step total is rounded *without any* ratio error (simple
      rounding achieves this only when every edge independently rounds the
      same way);
    * skewed mixes may deliberately trade a little total volume for ratio
      fidelity — e.g. the enzyme assay's 1:99 shares round to 2:195 steps
      (1.5% off) rather than simple rounding's 2:194 (2.04% off).
    """
    limits = assignment.limits
    dag = assignment.dag
    least = limits.least_count
    rounded: dict[EdgeKey, Fraction] = {}
    for node in dag.nodes():
        inbound = [e for e in dag.in_edges(node.id) if not e.is_excess]
        if not inbound:
            continue
        exact = {e.key: assignment.edge_volume[e.key] for e in inbound}
        fractions = {e.key: e.fraction for e in inbound}
        exact_total_steps = sum(exact.values(), Fraction(0)) / least
        floors: dict[EdgeKey, int] = {}
        benefits: list[tuple[Fraction, EdgeKey]] = []
        for key, volume in exact.items():
            steps = volume / least
            whole = steps.numerator // steps.denominator
            floors[key] = whole
            remainder = steps - whole
            # relative-error reduction from rounding this edge up instead
            # of down: (down error - up error) / exact steps
            benefit = (
                (2 * remainder - 1) / steps if steps > 0 else Fraction(0)
            )
            benefits.append((benefit, key))
        benefits.sort(key=lambda item: (-item[0], item[1]))
        base_total = sum(floors.values())

        best_choice: dict[EdgeKey, int] = dict(floors)
        best_score = None
        for leftover in range(len(inbound) + 1):
            candidate = dict(floors)
            for __, key in benefits[:leftover]:
                candidate[key] += 1
            total = base_total + leftover
            if total == 0:
                continue
            worst = Fraction(0)
            for key, steps in candidate.items():
                declared = fractions[key]
                achieved = Fraction(steps, total)
                deviation = abs(achieved - declared) / declared
                worst = max(worst, deviation)
            distance = abs(Fraction(total) - exact_total_steps)
            score = (worst, distance)
            if best_score is None or score < best_score:
                best_score = score
                best_choice = candidate
        for key, steps in best_choice.items():
            rounded[key] = steps * least
    _repair_deficits(dag, rounded, limits, dict(assignment.edge_volume))
    result = assignment_from_edge_volumes(
        assignment.dag,
        limits,
        rounded,
        method=f"{assignment.method}+rounded-lr",
        meta=dict(assignment.meta),
    )
    result.meta["rounded_from"] = assignment.method
    return result


def max_ratio_error(assignment: VolumeAssignment) -> Fraction:
    """Largest relative ratio deviation (0 when the ratios are exact)."""
    errors = ratio_errors(assignment)
    if not errors:
        return Fraction(0)
    return max(error.relative_error for error in errors)
