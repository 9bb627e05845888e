"""Independent re-derivation of the IVol constraint system.

This module rebuilds, from first principles, the demand model the paper's
volume solvers work against: how much of every fluid one unit of final
output requires, which node's capacity pins the global scale, and what
output volume an ideal (unrounded, equal-proportion) plan could deliver.

It deliberately does **not** import :mod:`repro.core.dagsolve`,
:mod:`repro.core.lp`, or :mod:`repro.core.rounding` — the certifier's
value as a translation validator comes from computing the same quantities
through an independent implementation, so a bug in the solvers cannot
silently agree with a bug here.  Only the shared IR (:mod:`repro.core.dag`)
and the limits record are reused.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from ...core.dag import AssayDAG, NodeKind
from ...core.limits import HardwareLimits

__all__ = ["ReferenceModel", "reference_model"]

EdgeKey = tuple[str, str]

#: node kinds that act as fluid sources (drawn from a reservoir, never
#: produced by an upstream operation).
SOURCE_KINDS = (NodeKind.INPUT, NodeKind.CONSTRAINED_INPUT)


@dataclass
class ReferenceModel:
    """The re-derived demand model for one assay DAG.

    All quantities are *normalised*: they assume every final output
    produces exactly one volume unit (the paper's first artificial
    constraint).  ``production[n]`` is how much node ``n`` must produce,
    ``load[n]`` how much enters it (they differ only for separators),
    ``edge_demand[(s, d)]`` how much flows along each edge.  ``scale`` is
    the largest multiplier the hardware permits — the minimum over all
    nodes of ``capacity / held`` and over measured constrained inputs of
    ``available / production`` — and ``output_bound`` the total output
    volume an ideal unrounded equal-proportion plan would deliver at that
    scale.
    """

    production: dict[str, Fraction]
    load: dict[str, Fraction]
    edge_demand: dict[EdgeKey, Fraction]
    scale: Fraction
    output_bound: Fraction
    #: the node whose capacity (or availability) pins ``scale``.
    binding_node: str | None = None

    def held(self, node_id: str) -> Fraction:
        """Peak normalised volume the node's location must hold."""
        return max(self.production[node_id], self.load[node_id])


def reference_model(dag: AssayDAG, limits: HardwareLimits) -> ReferenceModel:
    """Re-derive normalised demands and the capacity-bound scale.

    Walks the DAG once in reverse topological order: a final output needs
    one unit; an intermediate must produce what its consumers draw plus
    its statically-known excess share; the volume *entering* a node is its
    production divided by its output fraction.  This mirrors the paper's
    constraint classes 1-5 without reusing the solver code.

    Raises:
        repro.core.errors.DagError (via ``validate``/``topological_order``)
        when the DAG is structurally broken — callers turn that into a
        certification failure rather than a crash.
    """
    # Every normalised quantity is an integer over one common denominator
    # ``den``, grown (and every stored integer rescaled) when a division
    # does not come out even.
    den = 1
    production: dict[str, int] = {}
    load: dict[str, int] = {}
    edge_demand: dict[EdgeKey, int] = {}

    def times(value: int, num: int, div: int) -> int:
        """``value * num / div`` over ``den``, growing ``den`` if needed;
        the caller re-reads any stored integer it still holds."""
        nonlocal den
        product = value * num
        if product % div:
            grow = abs(div) // gcd(product, div)
            for table in (production, load, edge_demand):
                for key in table:
                    table[key] *= grow
            den *= grow
            product *= grow
        return product // div

    sink_ids = {
        node.id
        for node in dag.nodes()
        if dag.out_degree(node.id) == 0 and node.kind is not NodeKind.EXCESS
    }

    for node_id in reversed(dag.topological_order()):
        node = dag.node(node_id)
        if node.kind is NodeKind.EXCESS:
            continue  # derived from its producer below
        if node_id in sink_ids:
            production[node_id] = den
        else:
            # Flow conservation modulo the statically-known discard: the
            # node makes what its consumers draw, plus the excess share.
            drawn = sum(
                edge_demand[edge.key]
                for edge in dag.out_edges(node_id)
                if not edge.is_excess
            )
            kept = 1 - node.excess_fraction
            production[node_id] = times(
                drawn, kept.denominator, kept.numerator
            )
        excess = node.excess_fraction
        if excess.numerator > 0:
            surplus = times(
                production[node_id], excess.numerator, excess.denominator
            )
            for edge in dag.out_edges(node_id):
                if edge.is_excess:
                    edge_demand[edge.key] = surplus
                    production[edge.dst] = surplus
                    load[edge.dst] = surplus
        if node.kind in SOURCE_KINDS:
            load[node_id] = production[node_id]
            continue
        if node.unknown_volume:
            # A run-time-measured sink: the plan dispenses its *input*.
            fraction_out = Fraction(1)
        else:
            fraction_out = node.output_fraction or Fraction(1)
        load[node_id] = times(
            production[node_id],
            fraction_out.denominator,
            fraction_out.numerator,
        )
        for edge in dag.in_edges(node_id):
            if not edge.is_excess:
                share = edge.fraction
                edge_demand[edge.key] = times(
                    load[node_id], share.numerator, share.denominator
                )

    # -- the scale the hardware permits ---------------------------------
    # a bound ``limit / (held / den)`` is kept as the pair
    # ``(limit_num * den, limit_den * held)`` and compared crosswise.
    scale: tuple[int, int] | None = None
    binding: str | None = None

    def tighter(limit: Fraction, held: int) -> bool:
        nonlocal scale
        bound = (limit.numerator * den, limit.denominator * held)
        if scale is None or bound[0] * scale[1] < scale[0] * bound[1]:
            scale = bound
            return True
        return False

    for node in dag.nodes():
        held = max(production.get(node.id, 0), load.get(node.id, 0))
        if held == 0:
            continue
        if tighter(node.capacity or limits.max_capacity, held):
            binding = node.id
    for node in dag.nodes():
        if node.kind is not NodeKind.CONSTRAINED_INPUT:
            continue
        if node.available_volume is None:
            continue
        needed = production.get(node.id, 0)
        if needed == 0:
            continue
        if tighter(node.available_volume, needed):
            binding = node.id
    scale_num, scale_den = scale or (0, 1)

    delivered = sum(
        production[node.id]
        for node in dag.nodes()
        if node.id in sink_ids and node.kind not in SOURCE_KINDS
    )
    return ReferenceModel(
        production={key: Fraction(v, den) for key, v in production.items()},
        load={key: Fraction(v, den) for key, v in load.items()},
        edge_demand={
            key: Fraction(v, den) for key, v in edge_demand.items()
        },
        scale=Fraction(scale_num, scale_den),
        output_bound=Fraction(scale_num * delivered, scale_den * den),
        binding_node=binding,
    )
