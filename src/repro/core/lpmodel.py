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

There is one builder, :class:`IncrementalLPBuilder`.  The Figure 6 retry
loop keeps one instance across rounds, so a transform that rewrites a few
nodes only pays row construction for the rewritten neighborhood;
:func:`build_lp_model` is a single cold build.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

import numpy as np
from scipy import sparse

from .dag import AssayDAG, NodeKind
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

    def edge_for_variable(self, index: int) -> EdgeKey:
        for key, i in self.var_index.items():
            if i == index:
                return key
        raise IndexError(index)


#: rows in flat form: concatenated edge keys and float coefficients, then
#: per row its length, rhs and label.  A per-node bundle is one such
#: block, so a build concatenates blocks instead of walking rows.
_Block = tuple[
    tuple[EdgeKey, ...],
    tuple[float, ...],
    tuple[int, ...],
    tuple[float, ...],
    tuple[ConstraintRow, ...],
]
_EMPTY: _Block = ((), (), (), (), ())


class _Rows:
    """Accumulates constraint rows in flat form: a node's bundle while it
    is derived, or a whole model while it is assembled from blocks."""

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

    def extend(self, block: _Block) -> None:
        keys, values, lengths, rhs, labels = block
        self.keys.extend(keys)
        self.values.extend(values)
        self.lengths.extend(lengths)
        self.rhs.extend(rhs)
        self.labels.extend(labels)

    def block(self) -> _Block:
        if not self.lengths:
            return _EMPTY
        return (
            tuple(self.keys),
            tuple(self.values),
            tuple(self.lengths),
            tuple(self.rhs),
            tuple(self.labels),
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
    """Build RVol LP models, caching row bundles across builds.

    The model is split into **per-node row bundles** (classes 2-5 plus
    the class-1 FU-minimum row) keyed by a signature of everything the
    rows read: the node's kind, capacity, minimum, available volume and
    output fraction, and its exact in/out edge keys and ratios.  A build
    walks the DAG once; a node whose signature is unchanged reuses its
    bundle verbatim — coefficients already floated, keyed by edge rather
    than column so they survive variable renumbering — and only
    rewritten neighborhoods pay row construction.  The objective and the
    class-6 band are cached the same way, keyed by a signature of the
    output set.  A cold build is a build with nothing cached yet.

    Per-DAG structure (variable order, adjacency) is memoized in
    ``AssayDAG._derived``, next to the DAG's own validation memo, and
    dropped by any structural mutation;
    anything that reads a mutable node attribute is rebuilt or checked
    against the live node on every build.

    One builder is threaded through one hierarchy run (it assumes the
    same ``limits`` and options for every build); :meth:`build` may be
    called with any DAG — typically the loop's current graph, which
    differs from the previous round's only where a transform rewrote it.
    Reuse counts of the last build are in :attr:`last_stats` and on the
    model's ``meta["incremental"]``.
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
        #: node id -> (signature, ub block, eq block)
        self._bundles: dict[str, tuple[Any, _Block, _Block]] = {}
        #: (tail signature, objective pairs, class-6 ub block, eq block)
        self._tail: tuple[Any, list, _Block, _Block] | None = None
        #: reuse counters of the most recent :meth:`build`.
        self.last_stats: dict[str, int] = {"nodes": 0, "reused": 0}

    # ------------------------------------------------------------------
    @staticmethod
    def _structure(dag: AssayDAG) -> dict[str, tuple]:
        """Per-node adjacency snapshot, memoized per DAG object.

        For each non-EXCESS node id: ``(inbound keys, inbound fractions,
        outbound keys)`` with excess edges left out (a validated DAG routes
        excess edges only into EXCESS nodes, so the inbound side is the
        node's whole in-degree).
        """
        table = dag._derived.get("lp-structure")
        if table is None:
            table = {}
            for node in dag.nodes():
                if node.kind is NodeKind.EXCESS:
                    continue
                inbound = dag.in_edges(node.id)
                table[node.id] = (
                    tuple(e.key for e in inbound),
                    tuple(e.fraction for e in inbound),
                    tuple(
                        e.key for e in dag.out_edges(node.id) if not e.is_excess
                    ),
                )
            dag._derived["lp-structure"] = table
        return table

    def _node_bundle(self, node, entry: tuple) -> tuple[_Block, _Block]:
        """The node's ub/eq rows (constraint classes 1-5)."""
        in_keys, in_fractions, out_keys = entry
        is_source = node.kind in (NodeKind.INPUT, NodeKind.CONSTRAINED_INPUT)
        ub = _Rows()
        eq = _Rows()

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
        return ub.block(), eq.block()

    def _tail_rows(
        self, dag: AssayDAG, structure: dict[str, tuple], output_nodes: list
    ) -> tuple[list, _Block, _Block]:
        """Objective pairs plus the class-6 band, cached by output set."""
        # keyed per-objective: bundles built for one cost vector must never
        # serve another, and the objective may read structure (e.g. input
        # draws) the output-set signature alone would not cover
        signature = (
            self.objective.name,
            self.objective.lp_signature_extra(dag),
            tuple(
                (n.id, n.kind, n.output_fraction, structure[n.id])
                for n in output_nodes
            ),
        )
        cached = self._tail
        if cached is not None and cached[0] == signature:
            return cached[1], cached[2], cached[3]

        objective_pairs = self.objective.lp_objective_pairs(
            dag, output_nodes
        )

        # -- class 6: relative output-to-output ---------------------------
        # Each real output's volume is ``output_fraction`` times the sum
        # of its inbound edges: one coefficient shared by the whole group.
        real_outputs = [
            (n.id, structure[n.id][0], n.output_fraction or Fraction(1))
            for n in output_nodes
            if n.kind not in (NodeKind.INPUT, NodeKind.CONSTRAINED_INPUT)
            and structure[n.id][0]
        ]
        ub = _Rows()
        eq = _Rows()
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
        self._tail = (signature, objective_pairs, ub.block(), eq.block())
        return self._tail[1:]

    # ------------------------------------------------------------------
    def build(self, dag: AssayDAG) -> LPModel:
        """Assemble the model, reusing cached bundles where possible."""
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
        nodes_seen = 0
        reused = 0
        bundles = self._bundles
        live: set[str] = set()
        for node in dag.nodes():
            entry = structure.get(node.id)
            if entry is None:  # EXCESS
                continue
            nodes_seen += 1
            live.add(node.id)
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
            available = (
                node.available_volume
                if node.kind is NodeKind.CONSTRAINED_INPUT
                else None
            )
            signature = (
                node.kind,
                node.capacity,
                minimum,
                available,
                node.output_fraction,
                entry,
            )
            cached = bundles.get(node.id)
            if cached is not None and cached[0] == signature:
                __, ub_block, eq_block = cached
                reused += 1
            else:
                ub_block, eq_block = self._node_bundle(node, entry)
                bundles[node.id] = (signature, ub_block, eq_block)
            ub.extend(ub_block)
            eq.extend(eq_block)
        for stale in bundles.keys() - live:
            del bundles[stale]
        self.last_stats = {"nodes": nodes_seen, "reused": reused}

        # -- objective + class 6: cached by a signature of the outputs ----
        objective_pairs, tail_ub, tail_eq = self._tail_rows(
            dag, structure, output_nodes
        )
        cost = np.zeros(n_vars)
        for key, value in objective_pairs:
            cost[var_index[key]] -= value  # HiGHS minimises
        ub.extend(tail_ub)
        eq.extend(tail_eq)

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
                "incremental": dict(self.last_stats),
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
    """Build the RVol linear model for ``dag`` (a cold builder build).

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
