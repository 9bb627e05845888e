"""Human-facing plan reports: what the volume plan means at the bench.

A :class:`FluidRequirements` summarises a volume assignment per *input
fluid* — total volume to load, number of draws, largest single draw — and
per *output* — how much product the plan delivers.  This is the answer to
the question an assay author actually asks ("how much reagent do I need?")
and the quantity the paper's objective function maximises (total output
production).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .dag import AssayDAG, NodeKind
from .dagsolve import VolumeAssignment, dagsolve

__all__ = [
    "FluidUsage",
    "FluidRequirements",
    "fluid_requirements",
    "WasteBreakdown",
    "waste_breakdown",
    "plan_waste_breakdown",
]


@dataclass(frozen=True)
class FluidUsage:
    """Consumption summary for one input fluid."""

    fluid: str
    total: Fraction
    draws: int
    largest_draw: Fraction
    smallest_draw: Fraction

    def format(self, width: int) -> str:
        return (
            f"  {self.fluid:<{width}}  {float(self.total):8.2f} nl over "
            f"{self.draws} draw(s)  "
            f"[{float(self.smallest_draw):.2f} .. "
            f"{float(self.largest_draw):.2f} nl]"
        )


@dataclass
class FluidRequirements:
    """The bench-side view of a plan."""

    inputs: list[FluidUsage]
    outputs: dict[str, Fraction]
    total_loaded: Fraction
    total_delivered: Fraction

    @property
    def utilisation(self) -> Fraction:
        """Delivered product as a share of loaded reagent — the flip side
        of the excess/discard accounting."""
        if self.total_loaded == 0:
            return Fraction(0)
        return self.total_delivered / self.total_loaded

    def render(self) -> str:
        width = max(
            [len(usage.fluid) for usage in self.inputs] + [len("fluid")]
        )
        lines = ["reagents to load:"]
        lines += [usage.format(width) for usage in self.inputs]
        lines.append("products delivered:")
        for name, volume in sorted(self.outputs.items()):
            lines.append(f"  {name:<{width}}  {float(volume):8.2f} nl")
        lines.append(
            f"utilisation: {float(self.utilisation) * 100:.1f}% "
            f"({float(self.total_delivered):.1f} of "
            f"{float(self.total_loaded):.1f} nl)"
        )
        return "\n".join(lines)


def fluid_requirements(assignment: VolumeAssignment) -> FluidRequirements:
    """Summarise an assignment per input fluid and per output product."""
    dag = assignment.dag
    inputs: list[FluidUsage] = []
    total_loaded = Fraction(0)
    for node in dag.nodes():
        if node.kind is not NodeKind.INPUT:
            continue
        draws = [
            assignment.edge_volume[e.key]
            for e in dag.out_edges(node.id)
            if not e.is_excess
        ]
        if not draws:
            continue
        total = sum(draws, Fraction(0))
        total_loaded += total
        inputs.append(
            FluidUsage(
                fluid=node.display_name,
                total=total,
                draws=len(draws),
                largest_draw=max(draws),
                smallest_draw=min(draws),
            )
        )
    inputs.sort(key=lambda usage: (-usage.total, usage.fluid))

    outputs: dict[str, Fraction] = {}
    total_delivered = Fraction(0)
    for node in dag.outputs():
        if node.kind in (NodeKind.INPUT, NodeKind.CONSTRAINED_INPUT):
            continue
        volume = assignment.node_volume.get(node.id, Fraction(0))
        outputs[node.display_name] = volume
        total_delivered += volume
    return FluidRequirements(
        inputs=inputs,
        outputs=outputs,
        total_loaded=total_loaded,
        total_delivered=total_delivered,
    )


@dataclass
class WasteBreakdown:
    """Where loaded reagent that is *not* delivered ends up.

    Excess-production discards (the paper's "excess fluid" at partially
    used intermediates) are itemised per node; the residual bucket covers
    volume retained inside non-output sinks (parked intermediates, sensed
    samples) rather than pumped to waste.
    """

    loaded: Fraction
    delivered: Fraction
    excess_by_node: dict[str, Fraction]

    @property
    def excess(self) -> Fraction:
        return sum(self.excess_by_node.values(), Fraction(0))

    @property
    def retained(self) -> Fraction:
        """Loaded volume neither delivered nor discarded as excess."""
        return max(self.loaded - self.delivered - self.excess, Fraction(0))

    @property
    def utilisation(self) -> Fraction:
        if self.loaded == 0:
            return Fraction(0)
        return self.delivered / self.loaded

    def render(self) -> str:
        lines = [
            f"waste breakdown ({float(self.loaded):.2f} nl loaded):",
            f"  delivered: {float(self.delivered):8.2f} nl "
            f"({float(self.utilisation) * 100:.1f}%)",
            f"  excess:    {float(self.excess):8.2f} nl",
        ]
        for node, volume in sorted(
            self.excess_by_node.items(), key=lambda item: (-item[1], item[0])
        ):
            lines.append(f"    {node}: {float(volume):.2f} nl")
        if self.retained:
            lines.append(f"  retained:  {float(self.retained):8.2f} nl")
        return "\n".join(lines)


def waste_breakdown(assignment: VolumeAssignment) -> WasteBreakdown:
    """Itemise discarded excess per producing node for an assignment."""
    dag = assignment.dag
    loaded = Fraction(0)
    for node in dag.nodes():
        if node.kind not in (NodeKind.INPUT, NodeKind.CONSTRAINED_INPUT):
            continue
        for edge in dag.out_edges(node.id):
            if not edge.is_excess:
                loaded += assignment.edge_volume.get(edge.key, Fraction(0))

    delivered = Fraction(0)
    for node in dag.outputs():
        if node.kind in (NodeKind.INPUT, NodeKind.CONSTRAINED_INPUT):
            continue
        delivered += assignment.node_volume.get(node.id, Fraction(0))

    excess_by_node: dict[str, Fraction] = {}
    for edge in dag.edges():
        if not edge.is_excess:
            continue
        volume = assignment.edge_volume.get(edge.key, Fraction(0))
        if volume > 0:
            excess_by_node[edge.src] = (
                excess_by_node.get(edge.src, Fraction(0)) + volume
            )
    return WasteBreakdown(
        loaded=loaded,
        delivered=delivered,
        excess_by_node=excess_by_node,
    )


def plan_waste_breakdown(plan, assignment=None) -> WasteBreakdown:
    """Waste accounting for a plan, against its *final* DAG.

    A regeneration plan keeps the best assignment seen across all rounds,
    which can predate a cascade rewrite — pricing the old graph misses
    every excess edge the transform introduced, so the breakdown would
    under-attribute cascade-node discard.  When the assignment's DAG is
    not the plan's, the volumes are re-derived over the post-transform
    graph so the accounting matches what ``repro certify`` checks.
    """
    if assignment is None:
        assignment = plan.assignment
    if assignment is None:
        raise ValueError(f"plan for {plan.dag.name!r} has no assignment")
    if assignment.dag is not plan.dag:
        assignment = dagsolve(plan.dag, assignment.limits)
    return waste_breakdown(assignment)
