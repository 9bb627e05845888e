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
* the dispensing pass picks its scale as an integer ratio and divides
  once per result;
* results materialize as ``Fraction(int_value, M)`` in canonical form, so
  they are the exact rationals Figure 4 defines.

The backward pass reads a flat per-DAG context (reverse-topological row
tuples with pre-resolved edge keys and ratio numerators/denominators),
cached in ``AssayDAG._derived`` and dropped on any structural mutation.
Hierarchy attempts, the Vnorm memo and the runtime planner reuse it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from collections.abc import Mapping
from math import gcd

from .dag import AssayDAG, NodeKind
from .errors import (
    DagError,
    OverflowError_,
    UnderflowError,
    VolumeError,
)
from .limits import HardwareLimits, Number, as_fraction

__all__ = [
    "VnormResult",
    "Violation",
    "VolumeAssignment",
    "compute_vnorms",
    "dispense",
    "scale_for_required_outputs",
    "dagsolve",
]

EdgeKey = tuple[str, str]
#: integer Vnorm tables (node, node input, edge) over one denominator M.
_Scaled = tuple[dict[str, int], dict[str, int], dict[EdgeKey, int], int]

_CONTEXT_KEY = "dagsolve-context"


@dataclass
class VnormResult:
    """Vnorms produced by the backward pass.

    ``node_vnorm`` is the paper's node Vnorm: the node's *production* volume
    relative to the (unit) outputs.  ``node_input_vnorm`` is the total volume
    entering the node; it differs from production only for nodes with
    ``output_fraction != 1`` (separators) and is the quantity bounded by the
    capacity constraint (paper Figure 3 bounds ``K = r + s``).
    """

    node_vnorm: dict[str, Fraction]
    node_input_vnorm: dict[str, Fraction]
    edge_vnorm: dict[EdgeKey, Fraction]
    #: number of node and edge visits; used by tests to certify linearity.
    nodes_visited: int = 0
    edges_visited: int = 0

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

    Produced by :func:`dispense` (DAGSolve), by the LP/ILP solvers, or by the
    run-time assigner; consumers (codegen, the simulator, the benchmarks)
    treat all sources uniformly.
    """

    dag: AssayDAG
    limits: HardwareLimits
    node_volume: dict[str, Fraction]
    node_input_volume: dict[str, Fraction]
    edge_volume: dict[EdgeKey, Fraction]
    scale: Fraction | None = None
    method: str = "dagsolve"
    vnorms: VnormResult | None = None
    #: feasibility slack for float-based solvers (LP/ILP); exact methods
    #: keep it at 0 so their checks stay strict.
    tolerance: Fraction = Fraction(0)
    meta: dict[str, object] = field(default_factory=dict)

    # -- inspection ----------------------------------------------------
    def min_edge_volume(self) -> Fraction:
        if not self.edge_volume:
            raise VolumeError("assignment has no edges")
        return min(self.edge_volume.values())

    def min_edge(self) -> tuple[EdgeKey, Fraction]:
        key = min(self.edge_volume, key=self.edge_volume.__getitem__)
        return key, self.edge_volume[key]

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
        """
        found: list[Violation] = []
        slack = self.tolerance
        for edge in self.dag.edges():
            volume = self.edge_volume[edge.key]
            if not edge.is_excess and volume < self.limits.least_count - slack:
                found.append(
                    Violation(
                        "underflow",
                        f"{edge.src}->{edge.dst}",
                        volume,
                        self.limits.least_count,
                    )
                )
        for node in self.dag.nodes():
            capacity = node.capacity or self.limits.max_capacity
            load = max(
                self.node_volume[node.id], self.node_input_volume[node.id]
            )
            if load > capacity + slack:
                found.append(Violation("overflow", node.id, load, capacity))
            if node.min_volume is not None:
                held = self.node_input_volume[node.id]
                if node.kind in (NodeKind.INPUT, NodeKind.CONSTRAINED_INPUT):
                    held = self.node_volume[node.id]
                if held < node.min_volume - slack:
                    found.append(
                        Violation("min-volume", node.id, held, node.min_volume)
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


def _check_solvable(dag: AssayDAG) -> None:
    for node in dag.nodes():
        if node.unknown_volume and dag.out_degree(node.id) > 0:
            raise DagError(
                f"node {node.id!r} has a statically-unknown output volume "
                "and downstream uses; partition the DAG first "
                "(repro.core.partition) before running DAGSolve"
            )


def _fraction(num: int, den: int, _new=object.__new__, _gcd=gcd) -> Fraction:
    """``Fraction(num, den)`` for a known-positive ``den``.

    Result materialization dominates the solve once the integer passes are
    this cheap, and ``Fraction.__new__``'s type dispatch is most of that
    cost.  Both arguments are plain ints here and ``den`` (a scale product)
    is always positive, so reduce by gcd and fill the slots directly — the
    canonical form is identical to the public constructor's.
    """
    g = _gcd(num, den)
    if g > 1:
        num //= g
        den //= g
    f = _new(Fraction)
    f._numerator = num
    f._denominator = den
    return f


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
        _check_solvable(dag)
        self.output_ids = frozenset(node.id for node in dag.outputs())
        rows = []
        nodes_visited = 0
        edges_visited = 0
        for node_id in dag.reverse_topological_order():
            node = dag.node(node_id)
            if node.kind is NodeKind.EXCESS:
                # Computed when the producing node is visited (paper 3.4.1:
                # "the Vnorms of the excess edge and excess node are
                # computed after their source node's Vnorm is known").
                continue
            nodes_visited += 1
            out_keys = []
            excess_out = []
            for edge in dag.out_edges(node_id):
                if edge.is_excess:
                    excess_out.append((edge.key, edge.dst))
                else:
                    out_keys.append(edge.key)
            edges_visited += len(out_keys) + len(excess_out)
            keep = 1 - node.excess_fraction
            is_input = node.kind in (NodeKind.INPUT, NodeKind.CONSTRAINED_INPUT)
            in_edges: tuple = ()
            fo_num = fo_den = 1
            if not is_input:
                if node.unknown_volume:
                    # A partition sink whose output is measured at run
                    # time: the partition dispenses its *input*, so
                    # normalise that side.
                    fraction_out = Fraction(1)
                else:
                    fraction_out = node.output_fraction
                    if fraction_out is None or fraction_out <= 0:
                        raise DagError(
                            f"node {node_id!r} lacks a positive output_fraction"
                        )
                fo_num = fraction_out.numerator
                fo_den = fraction_out.denominator
                in_edges = tuple(
                    (e.key, e.fraction.numerator, e.fraction.denominator)
                    for e in dag.in_edges(node_id)
                )
                edges_visited += len(in_edges)
            rows.append(
                (
                    node_id,
                    node_id in self.output_ids,
                    keep.numerator,
                    keep.denominator,
                    in_edges,
                    tuple(out_keys),
                    tuple(excess_out),
                    node.excess_fraction.numerator,
                    node.excess_fraction.denominator,
                    is_input,
                    fo_num,
                    fo_den,
                )
            )
        self.rows = tuple(rows)
        self.nodes_visited = nodes_visited
        self.edges_visited = edges_visited


def _context(dag: AssayDAG) -> _SolveContext:
    """The DAG's cached :class:`_SolveContext` (built on first use).

    The cache lives in ``dag._derived`` and is dropped by the same
    structural mutations that invalidate the memoized topological order,
    so hierarchy attempts and runtime sessions over a frozen DAG pay the
    adjacency walk exactly once.
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
) -> _Scaled:
    """The backward pass over integers (paper Figure 4, lines 2-7)."""
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

    return node_vn, node_in, edge_vn, scale


def _vnorm_result(scaled: _Scaled, context: _SolveContext) -> VnormResult:
    node_vn, node_in, edge_vn, scale = scaled
    return VnormResult(
        node_vnorm={n: _fraction(v, scale) for n, v in node_vn.items()},
        node_input_vnorm={n: _fraction(v, scale) for n, v in node_in.items()},
        edge_vnorm={k: _fraction(v, scale) for k, v in edge_vn.items()},
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
        A :class:`VnormResult` with exact rational Vnorms.
    """
    context = _context(dag)
    scaled = _backward(context, _validated_targets(context, output_targets))
    return _vnorm_result(scaled, context)


def _common_denominator(vnorms: VnormResult) -> _Scaled:
    """Put a :class:`VnormResult` over one denominator ``M``.

    Vnorms restored from a cache entry (or built by hand) carry no shared
    scale, so the dispensing pass first takes the LCM of their
    denominators.
    """
    tables = (vnorms.node_vnorm, vnorms.node_input_vnorm, vnorms.edge_vnorm)
    scale = 1
    for table in tables:
        for value in table.values():
            den = value.denominator
            if scale % den:
                scale *= den // gcd(scale, den)
    factors: dict[int, int] = {}
    scaled = []
    for table in tables:
        ints = {}
        for key, value in table.items():
            den = value.denominator
            factor = factors.get(den)
            if factor is None:
                factor = factors[den] = scale // den
            ints[key] = value.numerator * factor
        scaled.append(ints)
    return scaled[0], scaled[1], scaled[2], scale


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


def _forward(
    dag: AssayDAG,
    limits: HardwareLimits,
    scaled: _Scaled,
    objective,
    vnorms: VnormResult,
) -> VolumeAssignment:
    """Forward (dispensing) pass over integers (paper Figure 4, lines 8-11).

    The scale is picked as an integer ratio ``(num, den)`` applied to the
    integer Vnorms, so ``volume = vnorm_int * num / (M * den)``.
    """
    node_vn, node_in, edge_vn, scale = scaled
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
            # bound = capacity / (load / M) = (cap_num * M) / (cap_den * load)
            best = _min_ratio(
                best, capacity.numerator * scale, capacity.denominator * load
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
                    available.denominator * vnorm,
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
        lc_den = least_count.denominator
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
                floor, minimum.numerator * scale, minimum.denominator * held
            )
        if floor is not None and floor[0] * best[1] < best[0] * floor[1]:
            best = floor

    scale_num, scale_den = best
    denominator = scale * scale_den
    return VolumeAssignment(
        dag=dag,
        limits=limits,
        node_volume={
            n: _fraction(v * scale_num, denominator) for n, v in node_vn.items()
        },
        node_input_volume={
            n: _fraction(v * scale_num, denominator) for n, v in node_in.items()
        },
        edge_volume={
            k: _fraction(v * scale_num, denominator) for k, v in edge_vn.items()
        },
        scale=Fraction(scale_num, scale_den),
        method="dagsolve",
        vnorms=vnorms,
    )


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
    """
    return _forward(dag, limits, _common_denominator(vnorms), objective, vnorms)


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
    node_volume = {n: v * scale for n, v in vnorms.node_vnorm.items()}
    node_input_volume = {
        n: v * scale for n, v in vnorms.node_input_vnorm.items()
    }
    edge_volume = {key: v * scale for key, v in vnorms.edge_vnorm.items()}
    return VolumeAssignment(
        dag=dag,
        limits=limits,
        node_volume=node_volume,
        node_input_volume=node_input_volume,
        edge_volume=edge_volume,
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
    nothing is put over a common denominator twice.

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
    context = _context(dag)
    scaled = _backward(context, _validated_targets(context, output_targets))
    assignment = _forward(
        dag, limits, scaled, objective, _vnorm_result(scaled, context)
    )
    if strict:
        assignment.require_feasible()
    return assignment
