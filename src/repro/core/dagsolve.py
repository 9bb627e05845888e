"""DAGSolve: linear-time rational volume management (paper Section 3.3).

DAGSolve over-constrains the RVol problem with two artificial constraints:

1. all final output volumes are in a fixed relative proportion (by default
   equal — every output node gets ``Vnorm = 1``), and
2. flow conservation at intermediate nodes — each intermediate fluid's
   production equals the total volume of its uses (no excess), except for
   the statically-computed excess introduced by cascading.

With these constraints a single **backward pass** in reverse topological
order computes every node's and edge's ``Vnorm`` (volume normalised to the
outputs), and a single **forward (dispensing) pass** converts Vnorms to
absolute volumes by anchoring the largest Vnorm at the machine's maximum
capacity.  Each node and edge is visited a constant number of times, giving
the linear complexity the paper contrasts with LP's ``O(n^3 L)``.

Worked example (paper Figures 2 and 5): for the four-mix assay the backward
pass yields ``Vnorm(K) = 2/3``, ``Vnorm(L) = 11/15``, ``Vnorm(B) = 46/45``
(the maximum), and the dispensing pass with a 100 nl maximum yields 100 nl
for B, 13 nl for A, and 65/72/98 nl for K/L/M — matching Figure 5 after
rounding.

Both passes are exact but run over plain integers instead of
:class:`fractions.Fraction` (whose gcd normalization on every operation
would otherwise *be* the solve):

* every Vnorm is stored as ``int_value == true_value * M`` for one shared
  denominator ``M``, grown lazily — a division ``v * p / q`` that would be
  inexact first multiplies ``M`` (and every stored value) by
  ``q // gcd(v * p, q)``, after which it divides evenly;
* the dispensing pass picks its scale as an integer ratio ``num / den``
  and keeps the backward pass's integers: volume ``= int_value * num /
  (M * den)``.

Every plan holds its tables the same way, whatever made it: an
:class:`ExactTable` is a read-only map of integers ``ints`` over a
``basis`` ``(num, den)``, and the three tables of one
:class:`VolumeAssignment` (or :class:`VnormResult`) share one basis, so the
verdicts (:meth:`VolumeAssignment.violations`,
:meth:`~VolumeAssignment.min_edge`) compare integers directly and a
failed attempt builds a Fraction only for each violator's volume.
DAGSolve's tables are views over its own integers; the rounded, LP and
ILP plans come from :func:`assignment_from_counts`; serde restores and
hand-built tables are put over one common denominator once, at
construction (:func:`common_basis`).  An entry becomes the canonical
``Fraction`` Figure 4 defines only when it is first read.

The backward pass reads a flat per-DAG context (reverse-topological row
tuples with pre-resolved edge keys and ratio numerators/denominators),
cached in ``AssayDAG._derived`` and dropped on any structural mutation.
Hierarchy attempts and the runtime planner reuse it.  Its
rows come from the DAG's node records (:meth:`AssayDAG.record`), and each
record memoizes its row, so a rewritten version re-derives only the rows
of the nodes the rewrite touched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from collections.abc import Iterator, Mapping
from math import gcd, lcm

from .dag import AssayDAG, NodeKind, NodeRecord
from .errors import (
    DagError,
    OverflowError_,
    UnderflowError,
    VolumeError,
)
from .exact import trusted_fraction as _fraction
from .limits import HardwareLimits, Number, as_fraction

__all__ = [
    "ExactTable",
    "VnormResult",
    "Violation",
    "VolumeAssignment",
    "assignment_from_counts",
    "common_basis",
    "compute_vnorms",
    "dispense",
    "scale_for_required_outputs",
    "dagsolve",
]

EdgeKey = tuple[str, str]

_CONTEXT_KEY = "dagsolve-context"
#: ``NodeRecord.views`` key of the node's backward-pass row.
_ROW = "dagsolve-row"


class ExactTable(Mapping):
    """Read-only exact table of integers: ``value = ints[key] * num / den``.

    ``ints`` maps each key (node id or edge key) to an integer and
    ``basis`` is the ``(num, den)`` pair; the three tables of one plan
    share one basis with ``num > 0`` and ``den > 0``, so their integers
    compare directly and integer order is value order.  ``ints`` is
    shared, not copied (DAGSolve's Vnorm and volume tables read the same
    integers), so it is never written after construction.  An entry
    becomes a canonical :class:`Fraction` when first read; a whole-table
    read (``items``, ``values``, ``==``) materializes every entry once, in
    the integers' order.
    """

    __slots__ = ("ints", "basis", "_values", "_full")

    def __init__(self, ints: dict, basis: tuple[int, int]) -> None:
        self.ints = ints
        self.basis = basis
        self._values: dict = {}
        self._full = False

    def __getitem__(self, key) -> Fraction:
        value = self._values.get(key)
        if value is None:
            num, den = self.basis
            value = self._values[key] = _fraction(self.ints[key] * num, den)
        return value

    def __contains__(self, key) -> bool:
        return key in self.ints

    def __iter__(self) -> Iterator:
        return iter(self.ints)

    def __len__(self) -> int:
        return len(self.ints)

    def _materialized(self) -> dict:
        if not self._full:
            values = self._values
            num, den = self.basis
            self._values = {
                key: values[key] if key in values else _fraction(v * num, den)
                for key, v in self.ints.items()
            }
            self._full = True
        return self._values

    def items(self):
        return self._materialized().items()

    def values(self):
        return self._materialized().values()

    def __repr__(self) -> str:
        return repr(self._materialized())


def common_basis(
    tables: tuple[Mapping, ...], tolerance: Fraction = Fraction(0)
) -> tuple[tuple[ExactTable, ...], int]:
    """Put tables of any origin over one common denominator.

    Every entry (a Fraction or an int) and ``tolerance`` go over the least
    common multiple ``L`` of their denominators: the tables come back on
    the basis ``(1, L)``, with ``tolerance`` as an integer on it.  This is
    how cache restores and hand-built tables enter a plan; DAGSolve and
    :func:`assignment_from_counts` build their tables on a shared basis
    directly.
    """
    common = lcm(
        tolerance.denominator,
        *{value.denominator for table in tables for value in table.values()},
    )
    basis = (1, common)
    exact = tuple(
        ExactTable(
            {
                key: value.numerator * (common // value.denominator)
                for key, value in table.items()
            },
            basis,
        )
        for table in tables
    )
    return exact, tolerance.numerator * (common // tolerance.denominator)


def _on_one_basis(
    tables: tuple[Mapping, ...], tolerance: Fraction
) -> tuple[tuple[ExactTable, ...], int]:
    """``tables`` on one shared basis, with ``tolerance`` an integer on it.

    Tables already sharing a positive basis on which the tolerance is a
    whole number are kept as they are; anything else (plain dicts, a zero
    scale, mixed bases) goes through :func:`common_basis`.
    """
    basis = getattr(tables[0], "basis", (0, 1))
    num, den = basis
    if num > 0 and all(
        type(table) is ExactTable and table.basis == basis for table in tables
    ):
        slack, rest = divmod(
            tolerance.numerator * den, tolerance.denominator * num
        )
        if not rest:
            return tables, slack
    return common_basis(tables, tolerance)


@dataclass
class VnormResult:
    """Vnorms produced by the backward pass.

    ``node_vnorm`` is the paper's node Vnorm: the node's *production* volume
    relative to the (unit) outputs.  ``node_input_vnorm`` is the total volume
    entering the node; it differs from production only for nodes with
    ``output_fraction != 1`` (separators) and is the quantity bounded by the
    capacity constraint (paper Figure 3 bounds ``K = r + s``).

    The three tables are :class:`ExactTable` on one basis:
    :func:`compute_vnorms` returns views over the backward pass's integers,
    which :func:`dispense` reuses as they are, and tables of any other
    origin are put over one common denominator on construction.
    """

    node_vnorm: Mapping[str, Fraction]
    node_input_vnorm: Mapping[str, Fraction]
    edge_vnorm: Mapping[EdgeKey, Fraction]
    #: number of node and edge visits; used by tests to certify linearity.
    nodes_visited: int = 0
    edges_visited: int = 0

    def __post_init__(self) -> None:
        (self.node_vnorm, self.node_input_vnorm, self.edge_vnorm), __ = (
            _on_one_basis(
                (self.node_vnorm, self.node_input_vnorm, self.edge_vnorm),
                Fraction(0),
            )
        )

    def max_vnorm(self) -> Fraction:
        """Largest volume Vnorm over all nodes (paper line 8, ``Max_V``).

        Uses the input-side Vnorm so separator loads are counted against
        capacity too; for flow-conserving DAGs this equals the paper's
        maximum node Vnorm exactly.
        """
        return max(
            max(self.node_vnorm[n], self.node_input_vnorm[n])
            for n in self.node_vnorm
        )


@dataclass(frozen=True)
class Violation:
    """One feasibility violation discovered in a volume assignment."""

    kind: str  # "underflow" | "overflow" | "min-volume"
    subject: str  # node id or "src->dst"
    volume: Fraction
    bound: Fraction

    def __str__(self) -> str:
        relation = "<" if self.kind in ("underflow", "min-volume") else ">"
        return (
            f"{self.kind} at {self.subject}: volume {float(self.volume):.6g} nl "
            f"{relation} bound {float(self.bound):.6g} nl"
        )


@dataclass
class VolumeAssignment:
    """Absolute volumes for every node and edge of an assay DAG.

    Produced by :func:`dispense` (DAGSolve), by the LP/ILP solvers, by
    rounding, or by the run-time assigner; consumers (codegen, the
    simulator, the benchmarks) treat all sources uniformly.

    The three tables are read-only :class:`ExactTable` on one basis, and
    the ``tolerance`` is held as an integer on that basis too, so the
    verdicts (:meth:`violations`, :meth:`min_edge`,
    :meth:`min_edge_volume`) compare integers.  To fabricate a different
    assignment, build a new one (``dataclasses.replace(a,
    node_volume={...})``): tables given as plain dicts are put over one
    common denominator on construction (:func:`common_basis`).
    """

    dag: AssayDAG
    limits: HardwareLimits
    node_volume: Mapping[str, Fraction]
    node_input_volume: Mapping[str, Fraction]
    edge_volume: Mapping[EdgeKey, Fraction]
    scale: Fraction | None = None
    method: str = "dagsolve"
    vnorms: VnormResult | None = None
    #: feasibility slack for float-based solvers (LP/ILP); exact methods
    #: keep it at 0 so their checks stay strict.
    tolerance: Fraction = Fraction(0)
    meta: dict[str, object] = field(default_factory=dict)
    #: ``tolerance`` as an integer on the tables' basis.
    _slack: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        (
            (self.node_volume, self.node_input_volume, self.edge_volume),
            self._slack,
        ) = _on_one_basis(
            (self.node_volume, self.node_input_volume, self.edge_volume),
            self.tolerance,
        )

    # -- inspection ----------------------------------------------------
    def min_edge(self) -> tuple[EdgeKey, Fraction]:
        """The edge with the smallest volume (first in table order on ties)."""
        ints = self.edge_volume.ints
        if not ints:
            raise VolumeError("assignment has no edges")
        key = min(ints, key=ints.__getitem__)
        return key, self.edge_volume[key]

    def min_edge_volume(self) -> Fraction:
        return self.min_edge()[1]

    def max_node_volume(self) -> Fraction:
        return max(
            max(self.node_volume[n], self.node_input_volume[n])
            for n in self.node_volume
        )

    def violations(self) -> list[Violation]:
        """All least-count, capacity and FU-minimum violations.

        Excess edges are exempt from the least-count check: the discarded
        share never needs to be metered separately — it simply stays behind
        in the functional unit.

        Decided on the tables' integers: a volume is ``v * num / den`` and
        the slack ``slack / den``, so ``volume < p / q - slack`` is ``(v *
        num + slack) * q < p * den`` and ``volume > p / q + slack`` is ``(v
        * num - slack) * q > p * den``.  A violation reports the table's own
        entry, so only a violator's volume becomes a Fraction.
        """
        node_table = self.node_volume
        held_table = self.node_input_volume
        edge_table = self.edge_volume
        node_ints = node_table.ints
        held_ints = held_table.ints
        edge_ints = edge_table.ints
        num, den = edge_table.basis
        slack = self._slack
        found: list[Violation] = []
        least_count = self.limits.least_count
        factor = num * least_count.denominator
        bound = least_count.numerator * den - slack * least_count.denominator
        for edge in self.dag.edges():
            key = edge.key
            if not edge.is_excess and edge_ints[key] * factor < bound:
                found.append(
                    Violation(
                        "underflow",
                        f"{edge.src}->{edge.dst}",
                        edge_table[key],
                        least_count,
                    )
                )
        max_capacity = self.limits.max_capacity
        for node in self.dag.nodes():
            node_id = node.id
            produced = node_ints[node_id]
            entering = held_ints[node_id]
            capacity = node.capacity or max_capacity
            if (
                max(produced, entering) * num - slack
            ) * capacity.denominator > capacity.numerator * den:
                load = (
                    node_table[node_id]
                    if produced >= entering
                    else held_table[node_id]
                )
                found.append(Violation("overflow", node_id, load, capacity))
            minimum = node.min_volume
            if minimum is not None:
                held, table = entering, held_table
                if node.kind in (NodeKind.INPUT, NodeKind.CONSTRAINED_INPUT):
                    held, table = produced, node_table
                if (
                    held * num + slack
                ) * minimum.denominator < minimum.numerator * den:
                    found.append(
                        Violation(
                            "min-volume", node_id, table[node_id], minimum
                        )
                    )
        return found

    @property
    def feasible(self) -> bool:
        return not self.violations()

    def require_feasible(self) -> "VolumeAssignment":
        """Raise the first violation as a typed error; return self if clean."""
        for violation in self.violations():
            if violation.kind == "overflow":
                raise OverflowError_(
                    str(violation),
                    node=violation.subject,
                    volume=violation.volume,
                    capacity=violation.bound,
                )
            raise UnderflowError(
                str(violation),
                edge=violation.subject if "->" in violation.subject else None,
                node=None if "->" in violation.subject else violation.subject,
                volume=violation.volume,
                least_count=violation.bound,
            )
        return self

    def as_floats(self) -> dict[str, dict[str, float]]:
        """Float view for reporting (nodes and edges, nl)."""
        return {
            "nodes": {n: float(v) for n, v in self.node_volume.items()},
            "edges": {
                f"{src}->{dst}": float(v)
                for (src, dst), v in self.edge_volume.items()
            },
        }


def assignment_from_counts(
    dag: AssayDAG,
    limits: HardwareLimits,
    counts: Mapping[EdgeKey, int],
    unit: Fraction,
    *,
    method: str,
    meta: dict[str, object] | None = None,
    tolerance: Fraction = Fraction(0),
) -> VolumeAssignment:
    """Package edge volumes given as integer multiples of ``unit`` nl.

    Node production for a source is its total draw; for an internal node
    it is ``output_fraction`` times the inbound total.  Excess edges, if
    the DAG has them, receive the node's production surplus (LP treats
    discarding as slack, DAGSolve as an explicit edge — this keeps the two
    representations interchangeable).  Every volume is an integer on one
    basis: ``unit`` refined by the output fractions' denominators, and
    further so the ``tolerance`` is a whole number of it.  The edge table
    keeps the key order of ``counts``.
    """
    nodes = [node for node in dag.nodes() if node.kind is not NodeKind.EXCESS]
    refine = lcm(
        *{(node.output_fraction or Fraction(1)).denominator for node in nodes}
    )
    num, den = unit.numerator, unit.denominator * refine
    if tolerance:
        slack_den = tolerance.denominator * num
        grow = slack_den // gcd(tolerance.numerator * den, slack_den)
        refine *= grow
        den *= grow
    edge_ints = {key: count * refine for key, count in counts.items()}
    node_ints: dict[str, int] = {}
    held_ints: dict[str, int] = {}
    for node in nodes:
        out_total = 0
        excess = []
        for edge in dag.out_edges(node.id):
            if edge.is_excess:
                excess.append(edge)
            else:
                out_total += edge_ints[edge.key]
        if node.kind in (NodeKind.INPUT, NodeKind.CONSTRAINED_INPUT):
            production = entering = out_total
        else:
            entering = sum(
                edge_ints[e.key]
                for e in dag.in_edges(node.id)
                if not e.is_excess
            )
            fraction_out = node.output_fraction or Fraction(1)
            production = (
                fraction_out.numerator * entering // fraction_out.denominator
            )
        node_ints[node.id] = production
        held_ints[node.id] = entering
        for edge in excess:
            surplus = max(0, production - out_total)
            edge_ints[edge.key] = surplus
            node_ints[edge.dst] = surplus
            held_ints[edge.dst] = surplus
    basis = (num, den)
    return VolumeAssignment(
        dag=dag,
        limits=limits,
        node_volume=ExactTable(node_ints, basis),
        node_input_volume=ExactTable(held_ints, basis),
        edge_volume=ExactTable(edge_ints, basis),
        method=method,
        tolerance=tolerance,
        meta=meta or {},
    )


def _check_solvable(dag: AssayDAG) -> None:
    for node in dag.nodes():
        if node.unknown_volume and dag.out_degree(node.id) > 0:
            raise DagError(
                f"node {node.id!r} has a statically-unknown output volume "
                "and downstream uses; partition the DAG first "
                "(repro.core.partition) before running DAGSolve"
            )


class _SolveContext:
    """Flat, reverse-topological view of one DAG for the backward pass.

    ``rows`` holds one tuple per non-EXCESS node, in backward-pass visit
    order::

        (node_id, is_output,
         keep_num, keep_den,          # 1 - excess_fraction
         in_edges,                    # ((edge_key, frac_num, frac_den), ...)
         out_keys,                    # non-excess out-edge keys (summed)
         excess_out,                  # ((edge_key, excess_node_id), ...)
         ex_num, ex_den,              # excess_fraction
         is_input, fo_num, fo_den)    # output_fraction (1 when unknown)

    Only structure is baked in.  Mutable node attributes (``capacity``,
    ``available_volume``, ``min_volume``) are read from the live nodes by
    the dispensing pass.
    """

    __slots__ = ("rows", "output_ids", "nodes_visited", "edges_visited")

    def __init__(self, dag: AssayDAG) -> None:
        dag.validate()
        record_of = dag.record
        excess_kind = NodeKind.EXCESS
        rows = []
        output_ids = []
        nodes_visited = 0
        edges_visited = 0
        unsolvable = False
        for node_id in dag.reverse_topological_order():
            record = record_of(node_id)
            if record.kind is excess_kind:
                # Computed when the producing node is visited (paper 3.4.1:
                # "the Vnorms of the excess edge and excess node are
                # computed after their source node's Vnorm is known").
                continue
            row = record.views.get(_ROW)
            if row is None:
                row = record.views[_ROW] = _row(dag, node_id, record)
            rows.append(row)
            nodes_visited += 1
            edges_visited += len(row[4]) + len(row[5]) + len(row[6])
            if row[1]:
                output_ids.append(node_id)
            elif record.unknown_volume:
                unsolvable = True
        if unsolvable:
            _check_solvable(dag)
        self.output_ids = frozenset(output_ids)
        self.rows = tuple(rows)
        self.nodes_visited = nodes_visited
        self.edges_visited = edges_visited


def _row(dag: AssayDAG, node_id: str, record: NodeRecord) -> tuple:
    """One :class:`_SolveContext` row, from the node's record."""
    out_keys = record.out_keys
    excess_out = record.excess_out
    excess = record.excess_fraction
    is_input = record.kind in (NodeKind.INPUT, NodeKind.CONSTRAINED_INPUT)
    in_edges: tuple = ()
    fo_num = fo_den = 1
    if not is_input:
        if not record.unknown_volume:
            # (an unknown-volume partition sink dispenses its *input*, so
            # that side is normalised: fraction 1)
            fraction_out = record.output_fraction
            if fraction_out is None or fraction_out <= 0:
                _check_solvable(dag)
                raise DagError(
                    f"node {node_id!r} lacks a positive output_fraction"
                )
            fo_num = fraction_out.numerator
            fo_den = fraction_out.denominator
        in_edges = tuple(
            [
                (key, share.numerator, share.denominator)
                for key, share in zip(record.in_keys, record.in_fractions)
            ]
        )
    return (
        node_id,
        not out_keys and not excess_out,
        # keep = 1 - excess, already in lowest terms
        excess.denominator - excess.numerator,
        excess.denominator,
        in_edges,
        out_keys,
        tuple([(key, key[1]) for key in excess_out]),
        excess.numerator,
        excess.denominator,
        is_input,
        fo_num,
        fo_den,
    )


def _context(dag: AssayDAG) -> _SolveContext:
    """The DAG's cached :class:`_SolveContext` (built on first use).

    The cache lives in ``dag._derived`` and is dropped by every
    mutation, so hierarchy attempts and runtime sessions over a frozen
    DAG assemble the rows exactly once.
    """
    context = dag._derived.get(_CONTEXT_KEY)
    if context is None:
        context = _SolveContext(dag)
        dag._derived[_CONTEXT_KEY] = context
    return context


def _validated_targets(
    context: _SolveContext,
    output_targets: Mapping[str, Number] | None,
) -> dict[str, Fraction]:
    targets: dict[str, Fraction] = {}
    if output_targets:
        targets = {n: as_fraction(v) for n, v in output_targets.items()}
        for node_id, value in targets.items():
            if value <= 0:
                raise VolumeError(
                    f"output target for {node_id!r} must be positive"
                )
        unknown_targets = set(targets) - context.output_ids
        if unknown_targets:
            raise DagError(
                f"output targets given for non-output nodes "
                f"{sorted(unknown_targets)}"
            )
    return targets


def _backward(
    context: _SolveContext,
    targets: dict[str, Fraction],
) -> VnormResult:
    """The backward pass over integers (paper Figure 4, lines 2-7); the
    Vnorms are views on the basis ``(1, M)``."""
    node_vn: dict[str, int] = {}
    node_in: dict[str, int] = {}
    edge_vn: dict[EdgeKey, int] = {}
    scale = 1

    def rescale(grow: int) -> None:
        nonlocal scale
        scale *= grow
        for table in (node_vn, node_in, edge_vn):
            for key in table:
                table[key] *= grow

    # Every division below follows the same grow-then-redo pattern: when
    # ``product / den`` would be inexact, grow M so the dividend (re-read
    # from its table, which rescale() just multiplied) divides evenly.
    for (
        node_id,
        is_output,
        keep_num,
        keep_den,
        in_edges,
        out_keys,
        excess_out,
        ex_num,
        ex_den,
        is_input,
        fo_num,
        fo_den,
    ) in context.rows:
        if is_output:
            target = targets.get(node_id)
            if target is None:
                production = scale
            else:
                tn, td = target.numerator, target.denominator
                product = scale * tn
                if product % td:
                    rescale(td // gcd(product, td))
                    product = scale * tn
                production = product // td
        else:
            # Second artificial constraint: flow conservation, modulo the
            # statically-known excess share from cascading.
            used = 0
            for key in out_keys:
                used += edge_vn[key]
            # production = used / keep  ==  used * keep_den / keep_num
            product = used * keep_den
            if product % keep_num:
                rescale(keep_num // gcd(product, keep_num))
                used = 0
                for key in out_keys:
                    used += edge_vn[key]
                product = used * keep_den
            production = product // keep_num
        node_vn[node_id] = production
        if ex_num:
            # excess_amount = production * excess_fraction
            product = production * ex_num
            if product % ex_den:
                rescale(ex_den // gcd(product, ex_den))
                production = node_vn[node_id]
                product = production * ex_num
            excess_amount = product // ex_den
            for key, excess_id in excess_out:
                edge_vn[key] = excess_amount
                node_vn[excess_id] = excess_amount
                node_in[excess_id] = excess_amount
        if is_input:
            node_in[node_id] = production
            continue
        # input_total = production / fraction_out
        product = production * fo_den
        if product % fo_num:
            rescale(fo_num // gcd(product, fo_num))
            production = node_vn[node_id]
            product = production * fo_den
        input_total = product // fo_num
        node_in[node_id] = input_total
        for key, frac_num, frac_den in in_edges:
            product = input_total * frac_num
            if product % frac_den:
                rescale(frac_den // gcd(product, frac_den))
                input_total = node_in[node_id]
                product = input_total * frac_num
            edge_vn[key] = product // frac_den

    basis = (1, scale)
    return VnormResult(
        node_vnorm=ExactTable(node_vn, basis),
        node_input_vnorm=ExactTable(node_in, basis),
        edge_vnorm=ExactTable(edge_vn, basis),
        nodes_visited=context.nodes_visited,
        edges_visited=context.edges_visited,
    )


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
        A :class:`VnormResult` with exact rational Vnorms (read-only views
        over the pass's integers).
    """
    context = _context(dag)
    return _backward(context, _validated_targets(context, output_targets))


def _min_ratio(
    best: tuple[int, int] | None, num: int, den: int
) -> tuple[int, int]:
    """min over positive rationals held as (num, den) pairs."""
    if best is None or num * best[1] < best[0] * den:
        return (num, den)
    return best


def _max_ratio(
    best: tuple[int, int] | None, num: int, den: int
) -> tuple[int, int]:
    """max over positive rationals held as (num, den) pairs."""
    if best is None or num * best[1] > best[0] * den:
        return (num, den)
    return best


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

    The pass runs over the Vnorms' integers: a Vnorm is ``vnorm_int * vn /
    M`` on their basis ``(vn, M)`` (``vn`` is 1 for the backward pass's
    own tables), and the scale is picked as an integer ratio ``(num,
    den)``, so ``volume = vnorm_int * vn * num / (M * den)``.
    """
    node_vn = vnorms.node_vnorm.ints
    node_in = vnorms.node_input_vnorm.ints
    edge_vn = vnorms.edge_vnorm.ints
    vn, scale = vnorms.edge_vnorm.basis
    max_load = 0
    for node_id, load in node_vn.items():
        other = node_in[node_id]
        if other > load:
            load = other
        if load > max_load:
            max_load = load
    if max_load <= 0:
        raise VolumeError("DAG has no positive Vnorm; nothing to dispense")

    # Anchor the largest load at its capacity (the paper's
    # ``max_default``), then let each measured constrained input cap the
    # scale at ``available / Vnorm`` (Section 3.5).
    max_capacity: Fraction = limits.max_capacity
    best: tuple[int, int] | None = None
    for node in dag.nodes():
        node_id = node.id
        capacity = node.capacity or max_capacity
        load = node_vn[node_id]
        other = node_in[node_id]
        if other > load:
            load = other
        if load:
            # bound = capacity / (load * vn / M)
            #       = (cap_num * M) / (cap_den * vn * load)
            best = _min_ratio(
                best,
                capacity.numerator * scale,
                capacity.denominator * vn * load,
            )
        if node.kind is NodeKind.CONSTRAINED_INPUT:
            available = node.available_volume
            if available is None:
                raise DagError(
                    f"constrained input {node_id!r} has no measured volume; "
                    "set node.available_volume before dispensing"
                )
            vnorm = node_vn[node_id]
            if vnorm:
                best = _min_ratio(
                    best,
                    available.numerator * scale,
                    available.denominator * vn * vnorm,
                )
    assert best is not None
    if objective is not None:
        from .objectives import resolve_objective

        objective = resolve_objective(objective)
    if objective is not None and objective.minimize_scale:
        # The waste anchor: the smallest feasible scale, below which some
        # non-excess edge would miss the least count or some FU minimum
        # would break; taken only when it undercuts the capacity anchor.
        floor: tuple[int, int] | None = None
        least_count: Fraction = limits.least_count
        lc_num = least_count.numerator * scale
        lc_den = least_count.denominator * vn
        for edge in dag.edges():
            if edge.is_excess:
                continue
            vnorm = edge_vn[edge.key]
            if vnorm <= 0:
                continue
            floor = _max_ratio(floor, lc_num, lc_den * vnorm)
        for node in dag.nodes():
            minimum = node.min_volume
            if minimum is None:
                continue
            held = node_in[node.id]
            if node.kind in (NodeKind.INPUT, NodeKind.CONSTRAINED_INPUT):
                held = node_vn[node.id]
            if held <= 0:
                continue
            floor = _max_ratio(
                floor,
                minimum.numerator * scale,
                minimum.denominator * vn * held,
            )
        if floor is not None and floor[0] * best[1] < best[0] * floor[1]:
            best = floor

    scale_num, scale_den = best
    basis = (vn * scale_num, scale * scale_den)
    return VolumeAssignment(
        dag=dag,
        limits=limits,
        node_volume=ExactTable(node_vn, basis),
        node_input_volume=ExactTable(node_in, basis),
        edge_volume=ExactTable(edge_vn, basis),
        scale=Fraction(scale_num, scale_den),
        method="dagsolve",
        vnorms=vnorms,
    )


def scale_for_required_outputs(
    dag: AssayDAG,
    vnorms: VnormResult,
    limits: HardwareLimits,
    required_outputs: Mapping[str, Number],
) -> VolumeAssignment:
    """Dispense for programmer-specified *minimum* output volumes.

    Implements the loop handling of Section 3.5 (option 2): instead of
    anchoring the largest Vnorm at capacity, pick the output with the
    smallest Vnorm-to-requirement slack and scale so every required output
    meets its specified volume.  The caller should afterwards check
    :meth:`VolumeAssignment.violations` — meeting the requirement may
    overflow, in which case static replication is needed upstream.
    """
    scale: Fraction | None = None
    output_ids = {node.id for node in dag.outputs()}
    for node_id, required in required_outputs.items():
        if node_id not in output_ids:
            raise DagError(f"{node_id!r} is not an output node")
        vnorm = vnorms.node_vnorm[node_id]
        if vnorm == 0:
            raise VolumeError(f"output {node_id!r} has zero Vnorm")
        needed = as_fraction(required) / vnorm
        scale = needed if scale is None else max(scale, needed)
    if scale is None:
        raise VolumeError("required_outputs must not be empty")
    num, den = vnorms.edge_vnorm.basis
    basis = (num * scale.numerator, den * scale.denominator)
    return VolumeAssignment(
        dag=dag,
        limits=limits,
        node_volume=ExactTable(vnorms.node_vnorm.ints, basis),
        node_input_volume=ExactTable(vnorms.node_input_vnorm.ints, basis),
        edge_volume=ExactTable(vnorms.edge_vnorm.ints, basis),
        scale=scale,
        method="dagsolve/required-outputs",
        vnorms=vnorms,
    )


def dagsolve(
    dag: AssayDAG,
    limits: HardwareLimits,
    output_targets: Mapping[str, Number] | None = None,
    *,
    strict: bool = False,
    objective=None,
) -> VolumeAssignment:
    """Run both DAGSolve passes and return the volume assignment.

    The backward pass hands its integers straight to the forward pass, so
    nothing is put over a common denominator twice, and the result's
    tables are views over those same integers.

    Args:
        dag: validated assay DAG.
        limits: hardware maximum capacity and least count.
        output_targets: optional relative output proportions.
        strict: when true, raise :class:`UnderflowError` /
            :class:`OverflowError_` on the first violation instead of
            returning an infeasible assignment for inspection.
        objective: optional :class:`~repro.core.objectives.
            PlanningObjective` steering the dispensing anchor (see
            :func:`dispense`).
    """
    assignment = dispense(
        dag, compute_vnorms(dag, output_targets), limits, objective=objective
    )
    if strict:
        assignment.require_feasible()
    return assignment
