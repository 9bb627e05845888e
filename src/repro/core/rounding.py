"""Rounding RVol solutions to IVol and measuring the induced ratio error.

Paper Section 4.2: "we round the results of the rational volume assignment
to the closest integer multiple of the least-count.  Such rounding did not
cause any overflow/underflow for our assays.  However, because such rounding
can introduce errors in mix ratios, we evaluate its effect ... the error was
no more than 2%.  As such, we defer investigation of more sophisticated
rounding techniques to the future."

Two rounding strategies are provided:

* :func:`round_assignment` — the paper's baseline: quantise every edge
  volume independently to the nearest least-count multiple (plus a deficit
  repair so the rounded plan stays executable);
* :func:`round_assignment_ratio_preserving` — the deferred "more
  sophisticated" technique: per consumer, quantise the node's *total input*
  and apportion the integer steps across the inbound edges by largest
  remainder (Hamilton apportionment), which provably caps each edge's
  absolute error at one least count while keeping the total exact.

:func:`ratio_errors` reports the per-mix relative deviation between the
achieved and declared ratios; ``benchmarks/bench_rounding_error.py``
aggregates both strategies into the paper's <= 2% claim and the ablation
comparing them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .dag import AssayDAG, NodeKind
from .dagsolve import VolumeAssignment, _assignment_from_counts, _ExactTable
from .limits import HardwareLimits, as_fraction

__all__ = [
    "RatioError",
    "round_assignment",
    "round_assignment_ratio_preserving",
    "ratio_errors",
    "max_ratio_error",
    "mean_ratio_error",
]

EdgeKey = tuple[str, str]


@dataclass(frozen=True)
class RatioError:
    """Deviation of one mix input from its declared share.

    ``relative_error`` is |achieved - declared| / declared, the quantity the
    paper reports (<= 2% across the glucose and enzyme assays).
    """

    node: str
    edge: EdgeKey
    declared: Fraction
    achieved: Fraction
    relative_error: Fraction

    def __str__(self) -> str:
        return (
            f"{self.edge[0]}->{self.edge[1]}: declared {self.declared}, "
            f"achieved {self.achieved} "
            f"({float(self.relative_error) * 100:.3f}% off)"
        )


def round_assignment(assignment: VolumeAssignment) -> VolumeAssignment:
    """Quantise every edge volume to the nearest least-count multiple.

    Node volumes are recomputed from the rounded edges so the result is
    internally consistent; the caller should re-check
    :meth:`VolumeAssignment.violations` because rounding down can in
    principle re-introduce underflow (the paper did not observe this and
    neither do our benchmarks, but the check is how one would find out).

    The work is done in integer least-count steps: an edge's exact volume
    is ``N / D`` steps over one common ``D``, so rounding half up is
    ``(2N + D) // 2D``.  The result's tables are plain, writable dicts of
    :class:`~fractions.Fraction` volumes.
    """
    dag = assignment.dag
    keys = [edge.key for edge in dag.edges() if not edge.is_excess]
    exact, denominator = _exact_steps(assignment, keys)
    twice = 2 * denominator
    steps = {key: (2 * exact[key] + denominator) // twice for key in keys}
    return _rounded(assignment, steps, exact, denominator, "+rounded")


def _exact_steps(
    assignment: VolumeAssignment, keys: list[EdgeKey]
) -> tuple[dict[EdgeKey, int], int]:
    """Exact edge volumes in least-count steps, as integers ``N`` over one
    positive denominator ``D`` (an edge carries ``N / D`` steps).

    DAGSolve's edge table is a view over integers already (``value = i *
    num / den``), which are read directly; any other table is brought onto
    the least common multiple of its denominators.
    """
    least = assignment.limits.least_count
    table = assignment.edge_volume
    if type(table) is _ExactTable:
        num, den = table._basis
        ints = table._ints
        factor = num * least.denominator
        exact = {key: ints[key] * factor for key in keys}
        return exact, den * least.numerator
    volumes = {key: as_fraction(table[key]) for key in keys}
    common = lcm(*{volume.denominator for volume in volumes.values()})
    factor = least.denominator
    exact = {
        key: volume.numerator * (common // volume.denominator) * factor
        for key, volume in volumes.items()
    }
    return exact, common * least.numerator


def _rounded(
    assignment: VolumeAssignment,
    steps: dict[EdgeKey, int],
    exact: dict[EdgeKey, int],
    denominator: int,
    suffix: str,
) -> VolumeAssignment:
    """Repair ``steps`` and package them as the rounded assignment."""
    dag = assignment.dag
    limits = assignment.limits
    _repair_deficits(dag, steps, limits, exact, denominator)
    meta = dict(assignment.meta)
    meta["rounded_from"] = assignment.method
    return _assignment_from_counts(
        dag,
        limits,
        steps,
        limits.least_count,
        method=f"{assignment.method}{suffix}",
        meta=meta,
    )


def _repair_deficits(
    dag: AssayDAG,
    steps: dict[EdgeKey, int],
    limits: HardwareLimits,
    exact: dict[EdgeKey, int],
    denominator: int,
) -> None:
    """Shave outbound edges until every node's uses fit its production.

    Independent rounding can leave a node's uses summing to slightly more
    than its (recomputed) production — half a least count per edge at
    worst.  Walk in topological order and decrement outbound edges until
    every node is executable, preferring the edge whose rounded volume
    currently sits highest *above* its exact value (a free correction) and
    breaking ties toward the largest edge (smallest relative harm).

    ``steps`` are rounded least-count steps, repaired in place; an edge's
    exact volume is ``exact[key] / denominator`` steps.  A budget of
    ``limit_num / limit_den`` steps is compared by cross-multiplication.
    """
    least = limits.least_count

    def shave(keys: list[EdgeKey], limit_num: int, limit_den: int) -> None:
        total = sum(steps[key] for key in keys)
        guard = 0
        while total * limit_den > limit_num:
            victim = max(
                keys,
                key=lambda k: (steps[k] * denominator - exact[k], steps[k]),
            )
            if steps[victim] <= 0 or guard > 4 * len(keys) + 16:
                break  # cannot repair further; violations() will report it
            steps[victim] -= 1
            total -= 1
            guard += 1

    for node_id in dag.topological_order():
        node = dag.node(node_id)
        inbound = [e.key for e in dag.in_edges(node_id) if not e.is_excess]
        outbound = [e.key for e in dag.out_edges(node_id) if not e.is_excess]
        capacity = node.capacity or limits.max_capacity
        # a capacity of c nl is c / least = (c_num * q) / (c_den * p) steps
        capacity_num = capacity.numerator * least.denominator
        capacity_den = capacity.denominator * least.numerator
        if inbound:
            # a consumer cannot hold more than its unit's capacity
            shave(inbound, capacity_num, capacity_den)
        if not outbound:
            continue
        if not inbound:
            # a source cannot dispense more than one reservoir holds
            shave(outbound, capacity_num, capacity_den)
            continue
        fraction_out = node.output_fraction or Fraction(1)
        production = fraction_out.numerator * sum(steps[k] for k in inbound)
        shave(outbound, production, fraction_out.denominator)


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
    dag = assignment.dag
    keys = [
        edge.key
        for node in dag.nodes()
        for edge in dag.in_edges(node.id)
        if not edge.is_excess
    ]
    exact, denominator = _exact_steps(assignment, keys)
    rounded: dict[EdgeKey, int] = {}
    for node in dag.nodes():
        inbound = [e for e in dag.in_edges(node.id) if not e.is_excess]
        if not inbound:
            continue
        fractions = {e.key: e.fraction for e in inbound}
        exact_total_steps = Fraction(
            sum(exact[key] for key in fractions), denominator
        )
        floors: dict[EdgeKey, int] = {}
        benefits: list[tuple[Fraction, EdgeKey]] = []
        for key in fractions:
            steps = Fraction(exact[key], denominator)
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
        rounded.update(best_choice)
    return _rounded(assignment, rounded, exact, denominator, "+rounded-lr")


def ratio_errors(assignment: VolumeAssignment) -> list[RatioError]:
    """Relative mix-ratio deviations introduced by (rounded) volumes.

    For every multi-input node the achieved input shares are compared with
    the declared edge fractions.  Exact assignments (DAGSolve before
    rounding) produce an empty list.
    """
    errors: list[RatioError] = []
    for node in assignment.dag.nodes():
        if node.kind is NodeKind.EXCESS:
            continue
        inbound = [
            e for e in assignment.dag.in_edges(node.id) if not e.is_excess
        ]
        if len(inbound) < 2:
            continue
        total = sum(
            (assignment.edge_volume[e.key] for e in inbound), Fraction(0)
        )
        if total == 0:
            continue
        for edge in inbound:
            achieved = assignment.edge_volume[edge.key] / total
            declared = edge.fraction
            relative = abs(achieved - declared) / declared
            if relative != 0:
                errors.append(
                    RatioError(node.id, edge.key, declared, achieved, relative)
                )
    return errors


def max_ratio_error(assignment: VolumeAssignment) -> Fraction:
    """Largest relative ratio deviation (0 when the ratios are exact).

    Per mix, the inbound volumes are brought onto one denominator, so an
    edge of ``v`` against a total of ``t`` and a declared share ``a / b``
    deviates by ``|v b - a t| / (a |t|)``.  Deviations are compared by
    cross-multiplication; only the largest becomes a Fraction.
    """
    dag = assignment.dag
    table = assignment.edge_volume
    worst_num, worst_den = 0, 1
    for node in dag.nodes():
        if node.kind is NodeKind.EXCESS:
            continue
        inbound = [e for e in dag.in_edges(node.id) if not e.is_excess]
        if len(inbound) < 2:
            continue
        volumes = [as_fraction(table[e.key]) for e in inbound]
        common = lcm(*{volume.denominator for volume in volumes})
        scaled = [
            volume.numerator * (common // volume.denominator)
            for volume in volumes
        ]
        total = sum(scaled)
        if total == 0:
            continue
        for edge, volume in zip(inbound, scaled):
            share = edge.fraction
            num = abs(volume * share.denominator - share.numerator * total)
            den = share.numerator * abs(total)
            if num * worst_den > worst_num * den:
                worst_num, worst_den = num, den
    return Fraction(worst_num, worst_den)


def mean_ratio_error(assignment: VolumeAssignment) -> Fraction:
    """Mean relative ratio deviation over all multi-input edges."""
    errors = ratio_errors(assignment)
    if not errors:
        return Fraction(0)
    return sum(
        (error.relative_error for error in errors), Fraction(0)
    ) / len(errors)
