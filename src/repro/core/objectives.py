"""Pluggable planning objectives: what the volume hierarchy optimises for.

The paper's Figure 6 hierarchy bakes a single goal into every layer —
DAGSolve anchors the largest Vnorm at full capacity, the LP objective
maximises total output production, and cascade intermediates discard their
statically-known surplus.  That is the right goal for reproducing the
paper, but it is not the only one real chips care about: reagent *waste*
(discarded excess plus input volume loaded and never delivered) is the
metric the waste-efficient sample-preparation literature optimises
(arXiv 1908.09618, arXiv 1307.1251).

A :class:`PlanningObjective` makes the goal a first-class strategy that
each layer consults instead of hard-coding arithmetic:

* ``dagsolve`` — the dispensing pass asks
  :attr:`~PlanningObjective.minimize_scale` whether to settle at the
  smallest feasible scale (every edge still clears the least count and
  every FU minimum holds) instead of the capacity anchor;
* ``lpmodel`` — :meth:`~PlanningObjective.lp_objective_pairs`
  builds the LP cost vector, and
  :meth:`~PlanningObjective.lp_signature_extra` contributes to the
  incremental builder's tail-cache key so cached bundles never
  cross-contaminate between objectives;
* ``cascading`` — :attr:`~PlanningObjective.waste_aware_cascades` selects
  front-loaded stage splits and excess reuse at shared cascade stages;
* ``hierarchy``/``fingerprint``/``service`` — the objective's
  :attr:`~PlanningObjective.name` travels in
  :meth:`VolumeManager.options_dict`, so compile fingerprints, cached
  plans, batch worker payloads, and wire requests are all keyed per
  objective.

Two objectives ship: ``default`` (paper-faithful max-output — every layer
behaves bit-identically to the pre-refactor code) and ``waste``
(minimise discarded + excess input volume).
"""

from __future__ import annotations

from fractions import Fraction
from collections.abc import Iterator, Sequence

from .dag import AssayDAG, Node, NodeKind
from .errors import VolumeError

__all__ = [
    "PlanningObjective",
    "MaxOutputObjective",
    "MinWasteObjective",
    "DEFAULT_OBJECTIVE",
    "WASTE_OBJECTIVE",
    "OBJECTIVES",
    "resolve_objective",
]

EdgeKey = tuple[str, str]


class PlanningObjective:
    """Strategy interface consulted by every planning layer.

    Subclasses override the class attributes and the LP hooks; instances
    are stateless and shared (the registry holds one singleton per name).
    """

    #: registry key; also what ``--objective`` and the wire schema accept.
    name: str = "abstract"
    #: one-line human description (surfaced by the objective pass).
    description: str = ""
    #: dispensing pass: settle at the smallest feasible scale instead of
    #: anchoring the largest Vnorm at capacity.
    minimize_scale: bool = False
    #: cascading: front-loaded stage splits + excess reuse at shared stages.
    waste_aware_cascades: bool = False

    def lp_objective_pairs(
        self, dag: AssayDAG, output_nodes: Sequence[Node]
    ) -> list[tuple[EdgeKey, float]]:
        """(edge key, weight) pairs defining the LP cost vector.

        Weights are *maximisation* coefficients: the model builders apply
        them as ``cost[var] -= weight`` because HiGHS minimises.
        """
        raise NotImplementedError

    def lp_signature_extra(self, dag: AssayDAG) -> tuple:
        """Extra cache-signature material for the incremental LP builder.

        Must cover everything :meth:`lp_objective_pairs` reads beyond the
        output set (which the builder's tail signature already covers).
        """
        return ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


def _delivery_pairs(
    dag: AssayDAG, output_nodes: Sequence[Node]
) -> list[tuple[EdgeKey, float]]:
    """Weight ``fraction_out`` on every inbound edge of a real output."""
    pairs: list[tuple[EdgeKey, float]] = []
    for node in output_nodes:
        fraction_out = node.output_fraction or Fraction(1)
        if node.kind in (NodeKind.INPUT, NodeKind.CONSTRAINED_INPUT):
            continue  # degenerate: an unused input is not a product
        for edge in dag.in_edges(node.id):
            if not edge.is_excess:
                pairs.append((edge.key, float(fraction_out)))
    return pairs


def _input_draw_keys(dag: AssayDAG) -> Iterator[EdgeKey]:
    """Every non-excess edge leaving a source node (the loaded volume)."""
    for node in dag.nodes():
        if node.kind in (NodeKind.INPUT, NodeKind.CONSTRAINED_INPUT):
            for edge in dag.out_edges(node.id):
                if not edge.is_excess:
                    yield edge.key


class MaxOutputObjective(PlanningObjective):
    """Paper-faithful goal: maximise total output production (Section 3.2).

    Every layer takes its legacy path — the compiled listings are
    byte-identical to the pre-objective compiler (pinned by
    ``tests/compiler/test_golden.py`` and the ``waste`` check of
    ``tools/corpus.py``).
    """

    name = "default"
    description = "maximise total output production (paper Section 3.2)"

    def lp_objective_pairs(
        self, dag: AssayDAG, output_nodes: Sequence[Node]
    ) -> list[tuple[EdgeKey, float]]:
        return _delivery_pairs(dag, output_nodes)


class MinWasteObjective(PlanningObjective):
    """Minimise discarded + excess input volume.

    * DAGSolve dispenses at the smallest feasible scale, so no node is
      filled to capacity just because capacity is there;
    * the LP minimises ``loaded - delivered`` (total source draw minus
      total product volume) instead of maximising delivery alone;
    * cascades use front-loaded stage splits (the discard of a cascade is
      set by every factor *after* the first) and share identical dilution
      stages between rewrites, consuming would-be excess instead of
      flushing it.
    """

    name = "waste"
    description = "minimise discarded + excess input volume"
    minimize_scale = True
    waste_aware_cascades = True

    def lp_objective_pairs(
        self, dag: AssayDAG, output_nodes: Sequence[Node]
    ) -> list[tuple[EdgeKey, float]]:
        # maximise(delivered - loaded) == minimise(loaded - delivered)
        pairs = _delivery_pairs(dag, output_nodes)
        pairs.extend((key, -1.0) for key in _input_draw_keys(dag))
        return pairs

    def lp_signature_extra(self, dag: AssayDAG) -> tuple:
        return tuple(_input_draw_keys(dag))


DEFAULT_OBJECTIVE = MaxOutputObjective()
WASTE_OBJECTIVE = MinWasteObjective()

#: name -> singleton; what the CLI, wire schema, and fingerprints accept.
OBJECTIVES: dict[str, PlanningObjective] = {
    objective.name: objective
    for objective in (DEFAULT_OBJECTIVE, WASTE_OBJECTIVE)
}


def resolve_objective(
    value: "str | PlanningObjective | None",
) -> PlanningObjective:
    """Resolve a name (or pass through an instance) to an objective.

    ``None`` resolves to the paper-faithful default.
    """
    if value is None:
        return DEFAULT_OBJECTIVE
    if isinstance(value, PlanningObjective):
        return value
    try:
        return OBJECTIVES[value]
    except (KeyError, TypeError):
        known = ", ".join(sorted(OBJECTIVES))
        raise VolumeError(
            f"unknown planning objective {value!r} (known: {known})"
        ) from None
