"""Plan certification: translation validation of a volume assignment.

Given the final (possibly cascaded/replicated) DAG and the volume
assignment the compiler produced for it, re-check every IVol obligation
exactly — over integers, every volume scaled by one common denominator
the checker derives itself from the assignment and the limits:

* **coverage** — every node and non-excess edge has a non-negative volume;
* **flow conservation** — a node's input volume equals the sum of its
  inbound draws; its production equals ``output_fraction`` times its
  input; its consumers (plus excess) draw no more than it produces;
* **quantisation / bounds** — every metered edge is an integer multiple
  of the least count and at least one least count; no location holds more
  than its capacity; functional-unit minimum loads and constrained-input
  budgets are respected;
* **ratio fidelity** — each mix input is within the rounding tolerance of
  its declared share;
* **slice consistency** — replicas brew the same recipe as their
  original; cascade stages chain to the node they were derived from;
* **waste report** — achieved output volume vs. the unrounded
  equal-proportion bound from :func:`~.constraints.reference_model`.

The assignment is accessed duck-typed (``node_volume`` /
``node_input_volume`` / ``edge_volume`` / ``tolerance``) so this module
needs no import from the solver stack it audits.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from ...compiler.diagnostics import Diagnostic, Severity
from ...core.dag import AssayDAG, Node, NodeKind, check_structure
from ...core.limits import HardwareLimits, as_fraction
from .codes import PLAN_CODES
from .constraints import SOURCE_KINDS, reference_model

__all__ = ["certify_plan"]

EdgeKey = tuple[str, str]

#: codes that report *feasibility* of the plan; when the compiler already
#: declared the plan infeasible (regeneration fallback), these downgrade
#: to warnings — the violation is known and handled at run time.  The
#: structural codes (FLOW, QUANT, COVERAGE, EXCESS, SLICE) never
#: downgrade: they mean the assignment is internally inconsistent, which
#: no amount of regeneration excuses.
_FEASIBILITY_CODES = frozenset(
    {
        "PLAN-UNDERFLOW",
        "PLAN-OVERFLOW",
        "PLAN-MIN-VOLUME",
        "PLAN-BUDGET",
        "PLAN-RATIO",
    }
)

def _nl(value: Fraction) -> str:
    return f"{float(value):.6g} nl"


def _lcm_of_denominators(*groups) -> int:
    """The least common multiple of the denominators of every rational in
    ``groups`` (``None`` entries, missing volumes, are skipped)."""
    denominators = {
        value.denominator
        for group in groups
        for value in group
        if value is not None
    }
    return lcm(*denominators)


class _PlanChecker:
    """Every check over integers: each volume, the slack and the limits
    are scaled by one common denominator ``L`` of the checker's own, so a
    volume ``v`` nl is the integer ``v * L``.  A bound that is not scaled
    (a node's capacity, minimum or budget, a ratio share) is compared by
    cross-multiplication, and a message renders ``n / L`` nl exactly as
    the Fraction would."""

    def __init__(
        self,
        dag: AssayDAG,
        assignment: object,
        limits: HardwareLimits,
        *,
        expect_feasible: bool = True,
        ratio_tolerance: Fraction | None = None,
    ) -> None:
        self.dag = dag
        self.limits = limits
        self.expect_feasible = expect_feasible
        self.ratio_tolerance = (
            None if ratio_tolerance is None else as_fraction(ratio_tolerance)
        )
        node_volume = dict(assignment.node_volume)
        node_input_volume = dict(assignment.node_input_volume)
        edge_volume = dict(assignment.edge_volume)
        slack = as_fraction(getattr(assignment, "tolerance", 0) or 0)
        scale = _lcm_of_denominators(
            node_volume.values(),
            node_input_volume.values(),
            edge_volume.values(),
            (slack, limits.least_count, limits.max_capacity),
            () if ratio_tolerance is None else (self.ratio_tolerance,),
        )
        self.scale = scale
        self.node_volume = self._scaled(node_volume)
        self.node_input_volume = self._scaled(node_input_volume)
        self.edge_volume = self._scaled(edge_volume)
        self.slack = self._int(slack)
        self.least = self._int(limits.least_count)
        self.max_capacity = self._int(limits.max_capacity)
        self.findings: list[Diagnostic] = []
        self.metrics: dict[str, float] = {}

    def _int(self, value: Fraction) -> int:
        return value.numerator * (self.scale // value.denominator)

    def _scaled(self, table: dict) -> dict:
        """``table`` in units of ``1 / L`` nl; a missing volume stays None."""
        scale = self.scale
        return {
            key: None
            if value is None
            else value.numerator * (scale // value.denominator)
            for key, value in table.items()
        }

    def _nl(self, value: int) -> str:
        """Render ``value / L`` nl as :func:`_nl` renders the Fraction
        (``int / int`` rounds correctly, as ``float(Fraction)`` does)."""
        return f"{value / self.scale:.6g} nl"

    def _over(self, value: int, bound: Fraction) -> bool:
        """``value / L > bound + slack``, cross-multiplied."""
        return (
            value * bound.denominator
            > (bound.numerator * self.scale + self.slack * bound.denominator)
        )

    # ------------------------------------------------------------------
    def emit(
        self,
        code: str,
        message: str,
        *,
        node: str | None = None,
        operand: str | None = None,
    ) -> None:
        severity = PLAN_CODES[code].severity
        if code in _FEASIBILITY_CODES and not self.expect_feasible:
            severity = Severity.WARNING
        self.findings.append(
            Diagnostic(severity, code, message, node=node, operand=operand)
        )

    # ------------------------------------------------------------------
    def run(self) -> tuple[list[Diagnostic], dict[str, float]]:
        if not self._check_structure():
            return self.findings, self.metrics
        covered = self._check_coverage()
        self._check_edges(covered)
        self._check_nodes(covered)
        self._check_slices()
        self._report_waste()
        return self.findings, self.metrics

    # ------------------------------------------------------------------
    def _check_structure(self) -> bool:
        try:
            # uncached: the certifier does not trust the DAG's memo
            check_structure(self.dag)
        except Exception as error:  # DagError / RatioError / CycleError
            self.emit(
                "PLAN-COVERAGE",
                f"the final DAG fails structural validation: {error}",
            )
            return False
        return True

    def _check_coverage(self) -> bool:
        """Every node and edge priced, nothing negative."""
        clean = True
        for node in self.dag.nodes():
            for name, table in (
                ("production", self.node_volume),
                ("input", self.node_input_volume),
            ):
                volume = table.get(node.id)
                if volume is None:
                    self.emit(
                        "PLAN-COVERAGE",
                        f"assignment has no {name} volume for node "
                        f"{node.id!r}",
                        node=node.id,
                    )
                    table[node.id] = 0
                    clean = False
                elif volume < 0:
                    self.emit(
                        "PLAN-COVERAGE",
                        f"negative {name} volume {self._nl(volume)} for node "
                        f"{node.id!r}",
                        node=node.id,
                    )
                    clean = False
        for edge in self.dag.edges():
            volume = self.edge_volume.get(edge.key)
            if volume is None:
                self.emit(
                    "PLAN-COVERAGE",
                    f"assignment has no volume for edge "
                    f"{edge.src}->{edge.dst}",
                    node=edge.dst,
                )
                self.edge_volume[edge.key] = 0
                clean = False
            elif volume < 0:
                self.emit(
                    "PLAN-COVERAGE",
                    f"negative volume {self._nl(volume)} on edge "
                    f"{edge.src}->{edge.dst}",
                    node=edge.dst,
                )
                clean = False
        return clean

    # ------------------------------------------------------------------
    def _check_edges(self, covered: bool) -> None:
        least = self.least
        floor = least - self.slack
        for edge in self.dag.edges():
            if edge.is_excess:
                # The discarded share stays behind in the unit; it is
                # never metered, so IVol places no quantum on it.
                continue
            volume = self.edge_volume[edge.key]
            label = f"{edge.src}->{edge.dst}"
            if volume % least:
                self.emit(
                    "PLAN-QUANT",
                    f"edge {label} dispenses {self._nl(volume)}, not an "
                    f"integer multiple of the {self._nl(least)} least count",
                    node=edge.dst,
                    operand=label,
                )
            if volume < floor:
                self.emit(
                    "PLAN-UNDERFLOW",
                    f"edge {label} dispenses {self._nl(volume)}, below the "
                    f"{self._nl(least)} least count",
                    node=edge.dst,
                    operand=label,
                )

    # ------------------------------------------------------------------
    def _in_edges(self, node_id: str):
        return [e for e in self.dag.in_edges(node_id) if not e.is_excess]

    def _out_edges(self, node_id: str):
        return [e for e in self.dag.out_edges(node_id) if not e.is_excess]

    def _check_nodes(self, covered: bool) -> None:
        slack = self.slack
        nl = self._nl
        edge_volume = self.edge_volume
        for node in self.dag.nodes():
            if node.kind is NodeKind.EXCESS:
                self._check_excess_sink(node)
                continue
            production = self.node_volume[node.id]
            entering = self.node_input_volume[node.id]
            inbound = self._in_edges(node.id)
            out_total = excess_total = 0
            for edge in self.dag.out_edges(node.id):
                if edge.is_excess:
                    excess_total += edge_volume[edge.key]
                else:
                    out_total += edge_volume[edge.key]
            in_total = sum(edge_volume[e.key] for e in inbound)

            # -- flow conservation (constraint classes 2 and 5) --------
            if node.kind in SOURCE_KINDS:
                if abs(entering - production) > slack:
                    self.emit(
                        "PLAN-FLOW",
                        f"source {node.id!r}: input volume {nl(entering)} "
                        f"differs from its production {nl(production)}",
                        node=node.id,
                    )
            else:
                if abs(entering - in_total) > slack:
                    self.emit(
                        "PLAN-FLOW",
                        f"node {node.id!r}: input volume {nl(entering)} "
                        f"!= sum of inbound draws {nl(in_total)}",
                        node=node.id,
                    )
                fraction_out = (
                    Fraction(1)
                    if node.unknown_volume
                    else (node.output_fraction or Fraction(1))
                )
                keep, part = fraction_out.numerator, fraction_out.denominator
                # production == keep / part * entering, within the slack
                if abs(production * part - keep * entering) > slack * part:
                    expected = keep * entering / (part * self.scale)
                    self.emit(
                        "PLAN-FLOW",
                        f"node {node.id!r}: production {nl(production)} != "
                        f"output fraction {fraction_out} x input "
                        f"{nl(entering)} = {expected:.6g} nl",
                        node=node.id,
                    )
            if out_total + excess_total > production + slack:
                self.emit(
                    "PLAN-FLOW",
                    f"node {node.id!r}: consumers draw "
                    f"{nl(out_total + excess_total)} but it only produces "
                    f"{nl(production)}",
                    node=node.id,
                )

            # -- excess accounting (cascading, Section 3.4.1) -----------
            if node.excess_fraction > 0 or excess_total > 0:
                surplus = max(0, production - out_total)
                if abs(excess_total - surplus) > slack:
                    self.emit(
                        "PLAN-EXCESS",
                        f"node {node.id!r}: excess edges carry "
                        f"{nl(excess_total)} but the production surplus is "
                        f"{nl(surplus)}",
                        node=node.id,
                    )
            if node.no_excess and excess_total > slack:
                self.emit(
                    "PLAN-EXCESS",
                    f"node {node.id!r} is flagged no-excess yet discards "
                    f"{nl(excess_total)}",
                    node=node.id,
                )

            # -- capacity / minimum load (constraint classes 1 and 3) ---
            held = max(production, entering)
            capacity = node.capacity
            if (
                self._over(held, capacity)
                if capacity
                else held > self.max_capacity + slack
            ):
                self.emit(
                    "PLAN-OVERFLOW",
                    f"node {node.id!r} holds {nl(held)}, over its "
                    f"{_nl(capacity or self.limits.max_capacity)} capacity",
                    node=node.id,
                )
            minimum = node.min_volume
            if minimum is not None:
                loaded = (
                    production if node.kind in SOURCE_KINDS else entering
                )
                # loaded / L < minimum - slack / L, cross-multiplied
                if (
                    loaded * minimum.denominator
                    < minimum.numerator * self.scale
                    - slack * minimum.denominator
                ):
                    self.emit(
                        "PLAN-MIN-VOLUME",
                        f"node {node.id!r} is loaded with {nl(loaded)}, "
                        f"below its {_nl(minimum)} minimum",
                        node=node.id,
                    )

            # -- constrained-input budget (Section 3.5) -----------------
            if (
                node.kind is NodeKind.CONSTRAINED_INPUT
                and node.available_volume is not None
                and self._over(production, node.available_volume)
            ):
                self.emit(
                    "PLAN-BUDGET",
                    f"constrained input {node.id!r} is drawn for "
                    f"{nl(production)} but only "
                    f"{_nl(node.available_volume)} is available",
                    node=node.id,
                )

            # -- mix-ratio fidelity (constraint class 4) ----------------
            if len(inbound) >= 2 and in_total > 0:
                tolerance = self._ratio_tolerance(len(inbound))
                for edge in inbound:
                    share = edge.fraction
                    part = share.denominator
                    actual = edge_volume[edge.key]
                    # |actual - share * in_total| > tolerance + slack
                    if (
                        abs(actual * part - share.numerator * in_total)
                        > (tolerance + slack) * part
                    ):
                        ideal = share.numerator * in_total / (
                            part * self.scale
                        )
                        self.emit(
                            "PLAN-RATIO",
                            f"mix {node.id!r}: input {edge.src!r} "
                            f"contributes {nl(actual)} against a declared "
                            f"share of {share} of {nl(in_total)} "
                            f"(= {ideal:.6g} nl); deviation exceeds the "
                            f"{nl(tolerance)} rounding tolerance",
                            node=node.id,
                            operand=f"{edge.src}->{edge.dst}",
                        )

    def _ratio_tolerance(self, n_inputs: int) -> int:
        """Largest per-edge deviation least-count rounding can introduce.

        Each rounded edge sits within one least count of its exact value,
        so the node's total shifts by at most ``n`` least counts and the
        ideal share of an edge by at most one more — anything beyond
        ``(n + 1)`` least counts cannot be explained by rounding.
        """
        if self.ratio_tolerance is not None:
            return self._int(self.ratio_tolerance)
        return (n_inputs + 1) * self.least

    def _check_excess_sink(self, node: Node) -> None:
        inbound = self.dag.in_edges(node.id)
        if len(inbound) != 1:
            return  # validate() already flagged the malformed sink
        carried = self.edge_volume[inbound[0].key]
        stored = self.node_volume[node.id]
        if abs(stored - carried) > self.slack:
            self.emit(
                "PLAN-EXCESS",
                f"excess sink {node.id!r} records {self._nl(stored)} but its "
                f"edge carries {self._nl(carried)}",
                node=node.id,
            )

    # ------------------------------------------------------------------
    def _check_slices(self) -> None:
        """Replication / cascading provenance consistency."""
        for node in self.dag.nodes():
            origin = node.meta.get("replica_of")
            if origin is not None:
                self._check_replica(node, str(origin))
            cascade_of = node.meta.get("cascade_of")
            if cascade_of is not None and node.kind is NodeKind.MIX:
                self._check_cascade_stage(node, str(cascade_of))

    def _recipe(self, node_id: str) -> list[tuple[str, Fraction]]:
        """Inbound (source, share) pairs, sources canonicalised so that a
        replicated predecessor matches its original."""
        recipe = []
        for edge in self._in_edges(node_id):
            src = self.dag.node(edge.src)
            root = str(src.meta.get("replica_of", edge.src))
            recipe.append((root, edge.fraction))
        return sorted(recipe)

    def _check_replica(self, node: Node, origin: str) -> None:
        if origin not in self.dag:
            self.emit(
                "PLAN-SLICE",
                f"replica {node.id!r} refers to missing original "
                f"{origin!r}",
                node=node.id,
            )
            return
        if self._recipe(node.id) != self._recipe(origin):
            self.emit(
                "PLAN-SLICE",
                f"replica {node.id!r} brews a different recipe than its "
                f"original {origin!r}: the copies would not be "
                "interchangeable",
                node=node.id,
            )

    def _check_cascade_stage(self, node: Node, target: str) -> None:
        if target not in self.dag:
            self.emit(
                "PLAN-SLICE",
                f"cascade stage {node.id!r} refers to missing node "
                f"{target!r}",
                node=node.id,
            )
            return
        # A waste-objective compile shares one stage between cascades: its
        # consumers then drink what a private stage would have discarded, so
        # zero excess and multiple successors are legitimate there.
        consumers = int(node.meta.get("cascade_consumers", 1))
        if node.excess_fraction <= 0 and consumers < 2:
            self.emit(
                "PLAN-SLICE",
                f"cascade stage {node.id!r} discards nothing; without an "
                "excess share the stage cannot concentrate the dilution",
                node=node.id,
            )
        successors = [e.dst for e in self._out_edges(node.id)]
        if len(successors) != max(1, consumers):
            self.emit(
                "PLAN-SLICE",
                f"cascade stage {node.id!r} feeds {len(successors)} "
                f"consumers; a stage concentrate flows to exactly "
                f"{max(1, consumers)} next stage(s)",
                node=node.id,
            )
            return
        if consumers > 1:
            # each branch is checked when its own chain's stages come up
            return
        # walk the concentrate chain; it must reach the cascaded node
        current, hops = successors[0], 0
        while current != target and hops <= self.dag.node_count:
            step = self.dag.node(current)
            if step.meta.get("cascade_of") != target:
                break
            nexts = [e.dst for e in self._out_edges(current)]
            if len(nexts) != 1:
                break
            current, hops = nexts[0], hops + 1
        if current != target:
            self.emit(
                "PLAN-SLICE",
                f"cascade stage {node.id!r} never reaches the node "
                f"{target!r} it was derived from",
                node=node.id,
            )

    # ------------------------------------------------------------------
    def _report_waste(self) -> None:
        loaded = delivered = excess = 0
        for node in self.dag.nodes():
            if node.kind in SOURCE_KINDS:
                loaded += self.node_volume[node.id]
            elif node.kind is NodeKind.EXCESS:
                excess += self.node_volume[node.id]
            elif self.dag.out_degree(node.id) == 0:
                delivered += self.node_volume[node.id]
        try:
            model = reference_model(self.dag, self.limits)
            bound = model.output_bound
        except Exception:  # structurally broken DAG: already reported
            bound = Fraction(0)
        # delivered / bound, as float(Fraction) rounds it
        attainment = (
            delivered * bound.denominator / (self.scale * bound.numerator)
            if bound
            else 0.0
        )
        self.metrics = {
            "loaded_nl": loaded / self.scale,
            "delivered_nl": delivered / self.scale,
            "excess_nl": excess / self.scale,
            "unrounded_bound_nl": float(bound),
            "utilisation": delivered / loaded if loaded else 0.0,
            "bound_attainment": attainment,
        }
        if bound > 0:
            self.emit(
                "PLAN-WASTE",
                f"plan delivers {self._nl(delivered)} of the "
                f"{_nl(bound)} unrounded equal-proportion bound "
                f"({attainment * 100:.1f}%), discarding "
                f"{self._nl(excess)} as cascade excess "
                f"({loaded / self.scale:.6g} nl loaded)",
            )


def certify_plan(
    dag: AssayDAG,
    assignment: object,
    limits: HardwareLimits,
    *,
    expect_feasible: bool = True,
    ratio_tolerance: Fraction | None = None,
) -> tuple[list[Diagnostic], dict[str, float]]:
    """Certify a volume assignment against the re-derived constraints.

    Args:
        dag: the final DAG the assignment prices (after transforms).
        assignment: anything exposing ``node_volume``,
            ``node_input_volume``, ``edge_volume`` mappings and an
            optional ``tolerance`` — typically a
            ``repro.core.dagsolve.VolumeAssignment``, accessed duck-typed
            to keep this package independent of the solver stack.
        limits: hardware capacity and least count to check against.
        expect_feasible: ``False`` when the compiler already declared the
            plan infeasible (regeneration fallback); feasibility findings
            then downgrade to warnings while structural inconsistencies
            stay errors.
        ratio_tolerance: override for the per-edge mix-ratio tolerance
            (default: ``(n_inputs + 1)`` least counts).

    Returns:
        ``(findings, metrics)`` — structured diagnostics plus the waste
        accounting used by the certificate report.
    """
    checker = _PlanChecker(
        dag,
        assignment,
        limits,
        expect_feasible=expect_feasible,
        ratio_tolerance=ratio_tolerance,
    )
    return checker.run()
