"""Reference plan checker: every IVol obligation in Fraction arithmetic.

This is :mod:`repro.analysis.certify.plan` as it was before the checker
moved onto integers under its own common denominator: it copies the
assignment's tables and compares :class:`fractions.Fraction` volumes
directly, and re-derives the waste bound's demand model
(:func:`reference_model`) in Fractions too.  The equivalence properties
(``tests/properties/test_back_half_equivalence.py``) assert that
production reports exactly these findings, message text included, and
exactly these metrics.
"""

from __future__ import annotations

from fractions import Fraction

from repro.analysis.certify.codes import PLAN_CODES
from repro.analysis.certify.constraints import SOURCE_KINDS, ReferenceModel
from repro.compiler.diagnostics import Diagnostic, Severity
from repro.core.dag import AssayDAG, Node, NodeKind
from repro.core.limits import HardwareLimits, as_fraction

__all__ = ["certify_plan"]

EdgeKey = tuple[str, str]

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
    production: dict[str, Fraction] = {}
    load: dict[str, Fraction] = {}
    edge_demand: dict[EdgeKey, Fraction] = {}

    sink_ids = {
        node.id
        for node in dag.nodes()
        if dag.out_degree(node.id) == 0 and node.kind is not NodeKind.EXCESS
    }

    for node_id in reversed(dag.topological_order()):
        node = dag.node(node_id)
        if node.kind is NodeKind.EXCESS:
            continue  # derived from its producer below
        drawn = Fraction(0)
        for edge in dag.out_edges(node_id):
            if not edge.is_excess:
                drawn += edge_demand[edge.key]
        if node_id in sink_ids:
            produced = Fraction(1)
        else:
            # Flow conservation modulo the statically-known discard: the
            # node makes what its consumers draw, plus the excess share.
            produced = drawn / (1 - node.excess_fraction)
        production[node_id] = produced
        if node.excess_fraction > 0:
            surplus = produced * node.excess_fraction
            for edge in dag.out_edges(node_id):
                if edge.is_excess:
                    edge_demand[edge.key] = surplus
                    production[edge.dst] = surplus
                    load[edge.dst] = surplus
        if node.kind in SOURCE_KINDS:
            load[node_id] = produced
            continue
        if node.unknown_volume:
            # A run-time-measured sink: the plan dispenses its *input*.
            fraction_out = Fraction(1)
        else:
            fraction_out = node.output_fraction or Fraction(1)
        entering = produced / fraction_out
        load[node_id] = entering
        for edge in dag.in_edges(node_id):
            if not edge.is_excess:
                edge_demand[edge.key] = edge.fraction * entering

    # -- the scale the hardware permits ---------------------------------
    scale: Fraction | None = None
    binding: str | None = None
    for node in dag.nodes():
        held = max(
            production.get(node.id, Fraction(0)),
            load.get(node.id, Fraction(0)),
        )
        if held == 0:
            continue
        capacity = node.capacity or limits.max_capacity
        bound = capacity / held
        if scale is None or bound < scale:
            scale, binding = bound, node.id
    for node in dag.nodes():
        if node.kind is not NodeKind.CONSTRAINED_INPUT:
            continue
        if node.available_volume is None:
            continue
        needed = production.get(node.id, Fraction(0))
        if needed == 0:
            continue
        bound = node.available_volume / needed
        if scale is None or bound < scale:
            scale, binding = bound, node.id
    if scale is None:
        scale = Fraction(0)

    outputs: list[str] = [
        node.id for node in dag.nodes()
        if node.id in sink_ids and node.kind not in SOURCE_KINDS
    ]
    output_bound = sum(
        (production[node_id] * scale for node_id in outputs), Fraction(0)
    )
    return ReferenceModel(
        production=production,
        load=load,
        edge_demand=edge_demand,
        scale=scale,
        output_bound=output_bound,
        binding_node=binding,
    )


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


class _PlanChecker:
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
        self.ratio_tolerance = ratio_tolerance
        self.node_volume: dict[str, Fraction] = dict(assignment.node_volume)
        self.node_input_volume: dict[str, Fraction] = dict(
            assignment.node_input_volume
        )
        self.edge_volume: dict[EdgeKey, Fraction] = dict(
            assignment.edge_volume
        )
        self.slack: Fraction = as_fraction(
            getattr(assignment, "tolerance", 0) or 0
        )
        self.findings: list[Diagnostic] = []
        self.metrics: dict[str, float] = {}

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
            self.dag.validate()
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
                    table[node.id] = Fraction(0)
                    clean = False
                elif volume < 0:
                    self.emit(
                        "PLAN-COVERAGE",
                        f"negative {name} volume {_nl(volume)} for node "
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
                self.edge_volume[edge.key] = Fraction(0)
                clean = False
            elif volume < 0:
                self.emit(
                    "PLAN-COVERAGE",
                    f"negative volume {_nl(volume)} on edge "
                    f"{edge.src}->{edge.dst}",
                    node=edge.dst,
                )
                clean = False
        return clean

    # ------------------------------------------------------------------
    def _check_edges(self, covered: bool) -> None:
        least = self.limits.least_count
        for edge in self.dag.edges():
            if edge.is_excess:
                # The discarded share stays behind in the unit; it is
                # never metered, so IVol places no quantum on it.
                continue
            volume = self.edge_volume[edge.key]
            label = f"{edge.src}->{edge.dst}"
            steps = volume / least
            if steps.denominator != 1:
                self.emit(
                    "PLAN-QUANT",
                    f"edge {label} dispenses {_nl(volume)}, not an integer "
                    f"multiple of the {_nl(least)} least count",
                    node=edge.dst,
                    operand=label,
                )
            if volume < least - self.slack:
                self.emit(
                    "PLAN-UNDERFLOW",
                    f"edge {label} dispenses {_nl(volume)}, below the "
                    f"{_nl(least)} least count",
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
        for node in self.dag.nodes():
            if node.kind is NodeKind.EXCESS:
                self._check_excess_sink(node)
                continue
            production = self.node_volume[node.id]
            entering = self.node_input_volume[node.id]
            inbound = self._in_edges(node.id)
            outbound = self._out_edges(node.id)
            in_total = sum(
                (self.edge_volume[e.key] for e in inbound), Fraction(0)
            )
            out_total = sum(
                (self.edge_volume[e.key] for e in outbound), Fraction(0)
            )

            # -- flow conservation (constraint classes 2 and 5) --------
            if node.kind in SOURCE_KINDS:
                if abs(entering - production) > slack:
                    self.emit(
                        "PLAN-FLOW",
                        f"source {node.id!r}: input volume {_nl(entering)} "
                        f"differs from its production {_nl(production)}",
                        node=node.id,
                    )
            else:
                if abs(entering - in_total) > slack:
                    self.emit(
                        "PLAN-FLOW",
                        f"node {node.id!r}: input volume {_nl(entering)} "
                        f"!= sum of inbound draws {_nl(in_total)}",
                        node=node.id,
                    )
                fraction_out = (
                    Fraction(1)
                    if node.unknown_volume
                    else (node.output_fraction or Fraction(1))
                )
                expected = fraction_out * entering
                if abs(production - expected) > slack:
                    self.emit(
                        "PLAN-FLOW",
                        f"node {node.id!r}: production {_nl(production)} != "
                        f"output fraction {fraction_out} x input "
                        f"{_nl(entering)} = {_nl(expected)}",
                        node=node.id,
                    )
            excess_total = sum(
                (
                    self.edge_volume[e.key]
                    for e in self.dag.out_edges(node.id)
                    if e.is_excess
                ),
                Fraction(0),
            )
            if out_total + excess_total > production + slack:
                self.emit(
                    "PLAN-FLOW",
                    f"node {node.id!r}: consumers draw "
                    f"{_nl(out_total + excess_total)} but it only produces "
                    f"{_nl(production)}",
                    node=node.id,
                )

            # -- excess accounting (cascading, Section 3.4.1) -----------
            if node.excess_fraction > 0 or excess_total > 0:
                surplus = max(Fraction(0), production - out_total)
                if abs(excess_total - surplus) > slack:
                    self.emit(
                        "PLAN-EXCESS",
                        f"node {node.id!r}: excess edges carry "
                        f"{_nl(excess_total)} but the production surplus is "
                        f"{_nl(surplus)}",
                        node=node.id,
                    )
            if node.no_excess and excess_total > slack:
                self.emit(
                    "PLAN-EXCESS",
                    f"node {node.id!r} is flagged no-excess yet discards "
                    f"{_nl(excess_total)}",
                    node=node.id,
                )

            # -- capacity / minimum load (constraint classes 1 and 3) ---
            capacity = node.capacity or self.limits.max_capacity
            held = max(production, entering)
            if held > capacity + slack:
                self.emit(
                    "PLAN-OVERFLOW",
                    f"node {node.id!r} holds {_nl(held)}, over its "
                    f"{_nl(capacity)} capacity",
                    node=node.id,
                )
            if node.min_volume is not None:
                loaded = (
                    production if node.kind in SOURCE_KINDS else entering
                )
                if loaded < node.min_volume - slack:
                    self.emit(
                        "PLAN-MIN-VOLUME",
                        f"node {node.id!r} is loaded with {_nl(loaded)}, "
                        f"below its {_nl(node.min_volume)} minimum",
                        node=node.id,
                    )

            # -- constrained-input budget (Section 3.5) -----------------
            if (
                node.kind is NodeKind.CONSTRAINED_INPUT
                and node.available_volume is not None
                and production > node.available_volume + slack
            ):
                self.emit(
                    "PLAN-BUDGET",
                    f"constrained input {node.id!r} is drawn for "
                    f"{_nl(production)} but only "
                    f"{_nl(node.available_volume)} is available",
                    node=node.id,
                )

            # -- mix-ratio fidelity (constraint class 4) ----------------
            if len(inbound) >= 2 and in_total > 0:
                tolerance = self._ratio_tolerance(len(inbound))
                for edge in inbound:
                    ideal = edge.fraction * in_total
                    actual = self.edge_volume[edge.key]
                    if abs(actual - ideal) > tolerance + slack:
                        self.emit(
                            "PLAN-RATIO",
                            f"mix {node.id!r}: input {edge.src!r} "
                            f"contributes {_nl(actual)} against a declared "
                            f"share of {edge.fraction} of {_nl(in_total)} "
                            f"(= {_nl(ideal)}); deviation exceeds the "
                            f"{_nl(tolerance)} rounding tolerance",
                            node=node.id,
                            operand=f"{edge.src}->{edge.dst}",
                        )

    def _ratio_tolerance(self, n_inputs: int) -> Fraction:
        """Largest per-edge deviation least-count rounding can introduce.

        Each rounded edge sits within one least count of its exact value,
        so the node's total shifts by at most ``n`` least counts and the
        ideal share of an edge by at most one more — anything beyond
        ``(n + 1)`` least counts cannot be explained by rounding.
        """
        if self.ratio_tolerance is not None:
            return self.ratio_tolerance
        return (n_inputs + 1) * self.limits.least_count

    def _check_excess_sink(self, node: Node) -> None:
        inbound = self.dag.in_edges(node.id)
        if len(inbound) != 1:
            return  # validate() already flagged the malformed sink
        carried = self.edge_volume[inbound[0].key]
        stored = self.node_volume[node.id]
        if abs(stored - carried) > self.slack:
            self.emit(
                "PLAN-EXCESS",
                f"excess sink {node.id!r} records {_nl(stored)} but its "
                f"edge carries {_nl(carried)}",
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
        loaded = Fraction(0)
        for node in self.dag.nodes():
            if node.kind in SOURCE_KINDS:
                loaded += self.node_volume[node.id]
        delivered = Fraction(0)
        for node in self.dag.nodes():
            if (
                self.dag.out_degree(node.id) == 0
                and node.kind not in SOURCE_KINDS
                and node.kind is not NodeKind.EXCESS
            ):
                delivered += self.node_volume[node.id]
        excess = sum(
            (self.node_volume[n.id] for n in self.dag.excess_nodes()),
            Fraction(0),
        )
        try:
            model = reference_model(self.dag, self.limits)
            bound = model.output_bound
        except Exception:  # structurally broken DAG: already reported
            bound = Fraction(0)
        self.metrics = {
            "loaded_nl": float(loaded),
            "delivered_nl": float(delivered),
            "excess_nl": float(excess),
            "unrounded_bound_nl": float(bound),
            "utilisation": float(delivered / loaded) if loaded else 0.0,
            "bound_attainment": float(delivered / bound) if bound else 0.0,
        }
        if bound > 0:
            self.emit(
                "PLAN-WASTE",
                f"plan delivers {_nl(delivered)} of the "
                f"{_nl(bound)} unrounded equal-proportion bound "
                f"({float(delivered / bound) * 100:.1f}%), discarding "
                f"{_nl(excess)} as cascade excess "
                f"({float(loaded):.6g} nl loaded)",
            )


def certify_plan(
    dag: AssayDAG,
    assignment: object,
    limits: HardwareLimits,
    *,
    expect_feasible: bool = True,
    ratio_tolerance: Fraction | None = None,
) -> tuple[list[Diagnostic], dict[str, float]]:
    """Certify a volume assignment the way the Fraction checker did."""
    checker = _PlanChecker(
        dag,
        assignment,
        limits,
        expect_feasible=expect_feasible,
        ratio_tolerance=ratio_tolerance,
    )
    return checker.run()
