"""Constraint-system construction for the LP/ILP formulations (Section 3.2).

The paper casts volume management as a linear program over one variable per
DAG edge (the absolute volume flowing along that edge).  Six constraint
classes are generated, with paper Figure 3 as the reference instance:

1. **Minimum volume** — every edge volume is at least the least count (plus
   any functional-unit minimum), one bound per edge.
2. **Maximum capacity** — the total volume entering a node (for input nodes:
   leaving it) is at most the hardware capacity, one row per node.
3. **Non-deficit** — the use of a fluid (sum of outbound edge volumes) does
   not exceed its production, one row per non-output node.
4. **Ratio** — inbound edge volumes obey the declared mix ratio, ``k - 1``
   equality rows for a ``k``-way mix.
5. **Relative node output-to-input** — production is the node's
   ``output_fraction`` times its input (folded into the non-deficit rows, as
   in Figure 3's ``w + x <= t + u``).
6. **Relative output-to-output** (optional) — all outputs stay within a
   fixed percentage of an anchor output (Figure 3's ``0.9 N <= M <= 1.1 N``),
   two rows per non-anchor output.

The cost vector is built by the pluggable planning objective
(:mod:`repro.core.objectives`); the default objective maximises the sum of
final output volumes, the ``waste`` objective minimises total source draw
minus total delivery.

For the ablation in paper Section 4.3 ("adding DAGSolve's additional
constraints to the LP formulation"), the builder can also emit

* **flow conservation** equalities at intermediate nodes, and
* **output equalisation** equalities pinning all outputs to the anchor,

which over-constrain the LP exactly the way DAGSolve does.

The builder is solver-independent: it produces sparse matrices plus labelled
rows, so the same model feeds :mod:`repro.core.lp` (HiGHS through scipy's
``milp``, no integrality), :mod:`repro.core.ilp` (the same, with every
variable integral), and the Table 2 constraint-count benchmark.

There is one builder, :class:`IncrementalLPBuilder`; every build derives
every row from the DAG it is given, and :func:`build_lp_model` is one
build of a fresh builder.  Before a build, the Figure 6 loop asks the
builder's :meth:`~IncrementalLPBuilder.least_volume_violation` whether
classes 1-5 can hold at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy import sparse

from .dag import AssayDAG, NodeKind
from .dagsolve import _context as _solve_context
from .errors import DagError
from .limits import HardwareLimits
from .objectives import resolve_objective

__all__ = [
    "ConstraintRow",
    "LPModel",
    "IncrementalLPBuilder",
    "build_lp_model",
]

EdgeKey = tuple[str, str]

#: Constraint-class labels, matching the paper's numbering.
CLASS_MIN_VOLUME = "min-volume"
CLASS_CAPACITY = "capacity"
CLASS_NON_DEFICIT = "non-deficit"
CLASS_RATIO = "ratio"
CLASS_OUTPUT_TO_OUTPUT = "output-to-output"
CLASS_FLOW_CONSERVATION = "flow-conservation"  # DAGSolve extra (ablation)
CLASS_OUTPUT_EQUAL = "output-equalisation"     # DAGSolve extra (ablation)


@dataclass(frozen=True)
class ConstraintRow:
    """Provenance of one matrix row, for reporting and debugging."""

    cls: str
    description: str
    equality: bool


@dataclass
class LPModel:
    """A fully-built linear model over edge-volume variables.

    The inequality system is ``A_ub @ x <= b_ub`` and the equality system is
    ``A_eq @ x == b_eq``; ``bounds`` carries per-variable (lo, hi) pairs that
    encode the minimum-volume constraint class (scipy treats bounds
    separately from rows, but we count them as constraints exactly like the
    paper does).
    """

    dag: AssayDAG
    limits: HardwareLimits
    var_index: dict[EdgeKey, int]
    objective: np.ndarray
    a_ub: sparse.csr_matrix
    b_ub: np.ndarray
    a_eq: sparse.csr_matrix
    b_eq: np.ndarray
    bounds: list[tuple[float, float | None]]
    rows_ub: list[ConstraintRow]
    rows_eq: list[ConstraintRow]
    meta: dict[str, object] = field(default_factory=dict)

    @property
    def n_variables(self) -> int:
        return len(self.var_index)

    @property
    def n_constraints(self) -> int:
        """Total constraint count as reported in Table 2.

        Counts every matrix row plus one minimum-volume constraint per
        variable (the paper's class 1 is one constraint per edge).
        """
        return len(self.rows_ub) + len(self.rows_eq) + self.n_variables

    def counts_by_class(self) -> dict[str, int]:
        counts: dict[str, int] = {CLASS_MIN_VOLUME: self.n_variables}
        for row in list(self.rows_ub) + list(self.rows_eq):
            counts[row.cls] = counts.get(row.cls, 0) + 1
        return counts


class _Rows:
    """Accumulates constraint rows in flat form: concatenated edge keys
    and float coefficients, then per row its length, rhs and label."""

    __slots__ = ("keys", "values", "lengths", "rhs", "labels")

    def __init__(self) -> None:
        self.keys: list[EdgeKey] = []
        self.values: list[float] = []
        self.lengths: list[int] = []
        self.rhs: list[float] = []
        self.labels: list[ConstraintRow] = []

    def add(
        self,
        keys: tuple[EdgeKey, ...],
        values: tuple[float, ...],
        rhs: float,
        cls: str,
        description: str,
        *,
        equality: bool,
    ) -> None:
        self.keys.extend(keys)
        self.values.extend(values)
        self.lengths.append(len(keys))
        self.rhs.append(rhs)
        self.labels.append(ConstraintRow(cls, description, equality))

    def add_scaled(
        self,
        groups: list[tuple[tuple[EdgeKey, ...], Fraction]],
        cls: str,
        description: str,
        *,
        equality: bool,
    ) -> None:
        """A ``... <= 0`` / ``== 0`` row from ``(edge keys, coefficient)``
        groups; a group whose coefficient is exactly zero is dropped."""
        keys: list[EdgeKey] = []
        values: list[float] = []
        for group, coefficient in groups:
            if coefficient != 0:
                keys.extend(group)
                values.extend([float(coefficient)] * len(group))
        self.add(
            tuple(keys), tuple(values), 0.0, cls, description, equality=equality
        )

    def matrices(
        self, var_index: dict[EdgeKey, int]
    ) -> tuple[sparse.csr_matrix, np.ndarray]:
        n_rows = len(self.rhs)
        rows = np.repeat(np.arange(n_rows), self.lengths)
        cols = [var_index[key] for key in self.keys]
        matrix = sparse.coo_matrix(
            (self.values, (rows, cols)), shape=(n_rows, len(var_index))
        ).tocsr()
        return matrix, np.asarray(self.rhs, dtype=float)


class IncrementalLPBuilder:
    """Build RVol LP models for one set of limits and options.

    A build walks the DAG once and derives every row from scratch: each
    node's classes 2-5 plus the class-1 FU-minimum row, then the
    objective and the class-6 band.  No rows are kept from one build to
    the next.

    Per-DAG structure (variable order, adjacency) is memoized in
    ``AssayDAG._derived`` and dropped by any structural mutation; the
    adjacency is read from the DAG's node records, which a mutation
    re-derives only where it touched.  Mutable node attributes are read
    from the live nodes on every build.

    One builder is threaded through one hierarchy run; the LP stage asks
    :meth:`least_volume_violation` before each build and builds nothing
    for an LP it rules out.  :attr:`last_stats` counts the nodes of the
    last build; nothing is reused, so its ``reused`` is always 0.
    """

    def __init__(
        self,
        limits: HardwareLimits,
        *,
        output_tolerance: float | None = 0.1,
        dagsolve_constraints: bool = False,
        min_volume_bounds: bool = True,
        objective=None,
    ) -> None:
        self.limits = limits
        self.output_tolerance = output_tolerance
        self.dagsolve_constraints = dagsolve_constraints
        self.min_volume_bounds = min_volume_bounds
        self.objective = resolve_objective(objective)
        #: node count of the most recent :meth:`build`.
        self.last_stats: dict[str, int] = {"nodes": 0, "reused": 0}

    # ------------------------------------------------------------------
    @staticmethod
    def _structure(dag: AssayDAG) -> dict[str, tuple]:
        """Per-node adjacency snapshot, memoized per DAG version.

        For each non-EXCESS node id: ``(inbound keys, inbound fractions,
        outbound keys)`` with excess edges left out (a validated DAG routes
        excess edges only into EXCESS nodes, so the inbound side is the
        node's whole in-degree).  Read from the DAG's node records.
        """
        table = dag._derived.get("lp-structure")
        if table is None:
            table = {}
            record_of = dag.record
            for node_id in dag.node_ids():
                record = record_of(node_id)
                if record.kind is not NodeKind.EXCESS:
                    table[node_id] = (
                        record.in_keys,
                        record.in_fractions,
                        record.out_keys,
                    )
            dag._derived["lp-structure"] = table
        return table

    def _node_rows(self, node, entry: tuple, ub: _Rows, eq: _Rows) -> None:
        """Add the node's ub/eq rows (constraint classes 1-5)."""
        in_keys, in_fractions, out_keys = entry
        is_source = node.kind in (NodeKind.INPUT, NodeKind.CONSTRAINED_INPUT)

        # -- class 2: maximum capacity ---------------------------------
        capacity = node.capacity or self.limits.max_capacity
        if is_source:
            if node.kind is NodeKind.CONSTRAINED_INPUT:
                if node.available_volume is not None:
                    capacity = min(capacity, node.available_volume)
            if out_keys:
                ub.add(
                    out_keys,
                    (1.0,) * len(out_keys),
                    float(capacity),
                    CLASS_CAPACITY,
                    f"{node.id}: total draw <= {capacity}",
                    equality=False,
                )
        elif in_keys:
            ub.add(
                in_keys,
                (1.0,) * len(in_keys),
                float(capacity),
                CLASS_CAPACITY,
                f"{node.id}: total input <= {capacity}",
                equality=False,
            )
            if node.min_volume is not None and len(in_keys) > 1:
                # FU minimum over the whole load (class 1 extension).
                ub.add(
                    in_keys,
                    (-1.0,) * len(in_keys),
                    -float(node.min_volume),
                    CLASS_MIN_VOLUME,
                    f"{node.id}: total input >= {node.min_volume}",
                    equality=False,
                )

        # -- classes 3+5: non-deficit with relative output-to-input ------
        # (outputs have no outbound edges, so they emit no such row)
        if not is_source and out_keys:
            fraction_out = node.output_fraction or Fraction(1)
            keys = out_keys + in_keys
            values = (1.0,) * len(out_keys) + (-float(fraction_out),) * len(
                in_keys
            )
            ub.add(
                keys,
                values,
                0.0,
                CLASS_NON_DEFICIT,
                f"{node.id}: use <= {fraction_out} * input",
                equality=False,
            )
            if self.dagsolve_constraints:
                eq.add(
                    keys,
                    values,
                    0.0,
                    CLASS_FLOW_CONSERVATION,
                    f"{node.id}: use == {fraction_out} * input",
                    equality=True,
                )

        # -- class 4: mix-ratio equalities -------------------------------
        if len(in_keys) > 1:
            anchor_key, anchor_fraction = in_keys[0], in_fractions[0]
            negated_anchor = -float(anchor_fraction)
            for other_key, other_fraction in zip(in_keys[1:], in_fractions[1:]):
                # anchor / f_anchor == other / f_other
                eq.add(
                    (anchor_key, other_key),
                    (float(other_fraction), negated_anchor),
                    0.0,
                    CLASS_RATIO,
                    (
                        f"{node.id}: {anchor_key[0]} vs {other_key[0]} "
                        f"in ratio {anchor_fraction}:{other_fraction}"
                    ),
                    equality=True,
                )

    def least_volume_violation(self, dag: AssayDAG) -> str | None:
        """Why no volumes satisfy constraint classes 1-5, or None.

        One reverse-topological sweep derives the least volume every node
        must take.  A node's total input is at least each inbound edge's
        minimum over that edge's mix-ratio share, at least its FU minimum,
        and at least the least volumes of the uses it supplies over its
        ``output_fraction``; each inbound edge then carries at least its
        share of that least.  A source's total draw is at least the sum
        of its uses.  The sweep counts in whole least counts, rounded down
        at every step, so it is a necessary condition only: a DAG it
        passes may still be infeasible (HiGHS decides, class 6 included),
        but one it rules out has no solution.

        It walks DAGSolve's backward-pass rows (the node records' integer
        ratios, in reverse topological order), which DAGSolve has already
        built for the DAG version the Figure 6 loop hands the LP, and
        reads capacities and minimums from the live nodes.  Returns a
        reason naming the first node whose least volume exceeds the
        capacity its class-2 row uses.
        """
        limits = self.limits
        least_count = limits.least_count
        max_capacity = limits.max_capacity
        max_units = max_capacity // least_count
        bounds_on = self.min_volume_bounds
        edge_lower = 1 if bounds_on else 0
        least_edge: dict[EdgeKey, int] = {}
        node_of = dag.node
        for row in _solve_context(dag).rows:
            # the row layout is repro.core.dagsolve._SolveContext's
            node_id, in_edges, out_keys = row[0], row[4], row[5]
            is_input, fo_num, fo_den = row[9:]
            node = node_of(node_id)
            # every use was swept first: a validated DAG has no edge into
            # a source, so each out key ends at a node with inbound rows
            least = sum([least_edge[key] for key in out_keys])
            capacity = node.capacity or max_capacity
            if is_input:
                if (
                    node.kind is NodeKind.CONSTRAINED_INPUT
                    and node.available_volume is not None
                ):
                    capacity = min(capacity, node.available_volume)
            elif in_edges:
                if least:  # classes 3+5: supply <= output_fraction * input
                    least = least * fo_den // fo_num
                minimum = node.min_volume
                lower = edge_lower
                if minimum is not None:
                    if len(in_edges) > 1:  # the FU-minimum row
                        least = max(least, minimum // least_count)
                    elif bounds_on:  # the single edge's class-1 bound
                        lower = max(lower, minimum // least_count)
                for __, num, den in in_edges:  # class 4: edge = share * input
                    if lower * den // num > least:
                        least = lower * den // num
                for key, num, den in in_edges:
                    share = least * num // den
                    least_edge[key] = share if share > lower else lower
            else:
                continue
            if least > (
                max_units
                if capacity is max_capacity
                else capacity // least_count
            ):
                return (
                    f"node {node_id!r} needs at least "
                    f"{float(least * least_count):.6g} nl, over its "
                    f"capacity of {float(capacity):.6g} nl"
                )
        return None

    def _output_rows(
        self,
        structure: dict[str, tuple],
        output_nodes: list,
        ub: _Rows,
        eq: _Rows,
    ) -> None:
        """Add the class-6 band (and its DAGSolve equalities)."""
        # -- class 6: relative output-to-output ---------------------------
        # Each real output's volume is ``output_fraction`` times the sum
        # of its inbound edges: one coefficient shared by the whole group.
        real_outputs = [
            (n.id, structure[n.id][0], n.output_fraction or Fraction(1))
            for n in output_nodes
            if n.kind not in (NodeKind.INPUT, NodeKind.CONSTRAINED_INPUT)
            and structure[n.id][0]
        ]
        if len(real_outputs) > 1:
            anchor, anchor_keys, anchor_fraction = real_outputs[0]
            if self.output_tolerance is not None:
                low = Fraction(str(1 - self.output_tolerance))
                high = Fraction(str(1 + self.output_tolerance))
            for other, other_keys, other_fraction in real_outputs[1:]:
                if self.output_tolerance is not None:
                    # low * other <= anchor  <=>  low*other - anchor <= 0
                    ub.add_scaled(
                        [
                            (other_keys, low * other_fraction),
                            (anchor_keys, -anchor_fraction),
                        ],
                        CLASS_OUTPUT_TO_OUTPUT,
                        f"{low} * V({other}) <= V({anchor})",
                        equality=False,
                    )
                    # anchor <= high * other
                    ub.add_scaled(
                        [
                            (anchor_keys, anchor_fraction),
                            (other_keys, -high * other_fraction),
                        ],
                        CLASS_OUTPUT_TO_OUTPUT,
                        f"V({anchor}) <= {high} * V({other})",
                        equality=False,
                    )
                if self.dagsolve_constraints:
                    eq.add_scaled(
                        [
                            (anchor_keys, anchor_fraction),
                            (other_keys, -other_fraction),
                        ],
                        CLASS_OUTPUT_EQUAL,
                        f"V({anchor}) == V({other})",
                        equality=True,
                    )

    # ------------------------------------------------------------------
    def build(self, dag: AssayDAG) -> LPModel:
        """Build the model for ``dag``, every row derived afresh."""
        dag.validate()
        for node in dag.nodes():
            if node.unknown_volume and dag.out_degree(node.id) > 0:
                raise DagError(
                    f"node {node.id!r} has unknown output volume and "
                    "downstream uses; partition the DAG before building "
                    "the LP"
                )
        derived = dag._derived

        # Excess machinery is DAGSolve-specific: LP's non-deficit
        # constraints already allow discarding surplus production, so
        # cascaded DAGs are modelled without their excess edges.
        base_index = derived.get("lp-varindex")
        if base_index is None:
            base_index = {
                key: i
                for i, key in enumerate(
                    e.key for e in dag.edges() if not e.is_excess
                )
            }
            derived["lp-varindex"] = base_index
        var_index: dict[EdgeKey, int] = dict(base_index)
        n_vars = len(var_index)

        # -- class 1: minimum volume, as variable lower bounds ----------
        # An edge into a single-input node also carries that node's FU
        # minimum; the override is read from the live node every build.
        limits = self.limits
        least_count = limits.least_count
        max_capacity_f = float(limits.max_capacity)
        lower = float(least_count) if self.min_volume_bounds else 0.0
        bounds: list[tuple[float, float | None]] = [
            (lower, max_capacity_f)
        ] * n_vars

        structure = self._structure(dag)
        output_nodes = dag.outputs()
        ub = _Rows()
        eq = _Rows()
        for node in dag.nodes():
            entry = structure.get(node.id)
            if entry is None:  # EXCESS
                continue
            minimum = node.min_volume
            if (
                minimum is not None
                and self.min_volume_bounds
                and len(entry[0]) == 1
            ):
                bounds[var_index[entry[0][0]]] = (
                    float(max(least_count, minimum)),
                    max_capacity_f,
                )
            self._node_rows(node, entry, ub, eq)
        self.last_stats = {"nodes": len(structure), "reused": 0}
        self._output_rows(structure, output_nodes, ub, eq)

        cost = np.zeros(n_vars)
        for key, value in self.objective.lp_objective_pairs(dag, output_nodes):
            cost[var_index[key]] -= value  # HiGHS minimises

        a_ub, b_ub = ub.matrices(var_index)
        a_eq, b_eq = eq.matrices(var_index)
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
                "output_tolerance": self.output_tolerance,
                "dagsolve_constraints": self.dagsolve_constraints,
                "planning_objective": self.objective.name,
            },
        )


def build_lp_model(
    dag: AssayDAG,
    limits: HardwareLimits,
    *,
    output_tolerance: float | None = 0.1,
    dagsolve_constraints: bool = False,
    min_volume_bounds: bool = True,
    objective=None,
) -> LPModel:
    """Build the RVol linear model for ``dag`` (one fresh builder's build).

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
    return IncrementalLPBuilder(
        limits,
        output_tolerance=output_tolerance,
        dagsolve_constraints=dagsolve_constraints,
        min_volume_bounds=min_volume_bounds,
        objective=objective,
    ).build(dag)
