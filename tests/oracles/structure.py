"""Reference structure walks: each consumer re-derives a DAG from scratch.

``AssayDAG`` keeps one record per node and patches it when a rewrite
touches the node; the structural check, DAGSolve's backward-pass context
and the LP builder's structure table read those records.  The functions
here are the walks they replaced: each one reads the whole live DAG on
every call and trusts no cache, so the property and identity suites can
check the record-backed versions against them.

* :func:`check_structure` — every structural rule over every node and
  edge (acyclicity, ranges, sources, inbound sums, excess edges and
  nodes);
* :func:`validate` — :func:`check_structure` memoized per structural
  version in ``AssayDAG._derived``;
* :class:`SolveContext` — DAGSolve's reverse-topological row tuples;
* :func:`lp_structure` — the LP builder's per-node adjacency table;
* :func:`extreme_mixes` — the cascade transform's extreme-mix scan.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from repro.core.dag import AssayDAG, NodeKind
from repro.core.dagsolve import _check_solvable
from repro.core.errors import DagError, RatioError
from repro.core.limits import HardwareLimits

__all__ = [
    "check_structure",
    "validate",
    "SolveContext",
    "lp_structure",
    "extreme_mixes",
]

_VALIDATED = "validated"


def check_structure(dag: AssayDAG) -> None:
    """Check a DAG's structural invariants; raises on the first violation.

    * graph is acyclic;
    * every node's ``excess_fraction`` lies in ``[0, 1)`` and every edge
      fraction is positive;
    * INPUT and CONSTRAINED_INPUT nodes have no inbound edges;
    * every non-source node's non-excess inbound fractions sum to 1;
    * excess edges originate from nodes with a matching
      ``excess_fraction`` and terminate in EXCESS nodes;
    * EXCESS nodes have exactly one inbound edge and no outbound edges;
    * unknown-volume nodes carry no static ``output_fraction``.
    """
    dag.topological_order()
    nodes = dag._nodes
    for node in nodes.values():
        excess = node.excess_fraction
        if not 0 <= excess.numerator < excess.denominator:
            raise RatioError(
                f"node {node.id!r}: excess_fraction must be in [0, 1), "
                f"got {excess}"
            )
        in_edges = dag.in_edges(node.id)
        if in_edges and node.kind in (
            NodeKind.INPUT,
            NodeKind.CONSTRAINED_INPUT,
        ):
            raise DagError(
                f"input node {node.id!r} must have no inbound edges"
            )
        for edge in in_edges:
            if edge.fraction.numerator <= 0:
                raise RatioError(
                    f"edge {edge.src!r}->{edge.dst!r}: fraction must be "
                    "positive"
                )
        inbound = [e.fraction for e in in_edges if not e.is_excess]
        if inbound:
            common = lcm(*(share.denominator for share in inbound))
            if common != sum(
                share.numerator * (common // share.denominator)
                for share in inbound
            ):
                raise RatioError(
                    f"node {node.id!r}: inbound fractions sum to "
                    f"{sum(inbound)}, expected 1"
                )
        if node.kind is NodeKind.EXCESS:
            if dag.out_degree(node.id) != 0:
                raise DagError(f"excess node {node.id!r} must be a sink")
            if len(in_edges) != 1:
                raise DagError(
                    f"excess node {node.id!r} must have exactly one "
                    "inbound edge"
                )
            (edge,) = in_edges
            if not edge.is_excess:
                raise DagError(
                    f"edge into excess node {node.id!r} must be flagged "
                    "is_excess"
                )
        if node.unknown_volume and node.output_fraction is not None:
            raise DagError(
                f"node {node.id!r}: unknown_volume nodes must not have a "
                "static output_fraction"
            )
        if not node.unknown_volume and node.output_fraction is None:
            raise DagError(
                f"node {node.id!r}: known-volume node lacks an "
                "output_fraction"
            )
    for edge in dag._edges.values():
        if edge.is_excess:
            src = nodes[edge.src]
            dst = nodes[edge.dst]
            if dst.kind is not NodeKind.EXCESS:
                raise DagError(
                    f"excess edge {edge.src!r}->{edge.dst!r} must end in "
                    "an EXCESS node"
                )
            if src.excess_fraction == 0:
                raise DagError(
                    f"excess edge from {edge.src!r} but the node's "
                    "excess_fraction is 0"
                )


def validate(dag: AssayDAG) -> None:
    """:func:`check_structure` once per structural version (a passing
    check is memoized in ``dag._derived``, which every mutation clears)."""
    derived = dag._derived
    if _VALIDATED not in derived:
        check_structure(dag)
        derived[_VALIDATED] = True


class SolveContext:
    """DAGSolve's flat, reverse-topological view of one DAG, walked from
    the live nodes and edges (the row layout of
    ``repro.core.dagsolve._SolveContext``)."""

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
            excess = node.excess_fraction
            is_input = node.kind in (NodeKind.INPUT, NodeKind.CONSTRAINED_INPUT)
            in_edges: tuple = ()
            fo_num = fo_den = 1
            if not is_input:
                if node.unknown_volume:
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
                    excess.denominator - excess.numerator,
                    excess.denominator,
                    in_edges,
                    tuple(out_keys),
                    tuple(excess_out),
                    excess.numerator,
                    excess.denominator,
                    is_input,
                    fo_num,
                    fo_den,
                )
            )
        self.rows = tuple(rows)
        self.nodes_visited = nodes_visited
        self.edges_visited = edges_visited


def lp_structure(dag: AssayDAG) -> dict[str, tuple]:
    """For each non-EXCESS node id: ``(inbound keys, inbound fractions,
    non-excess outbound keys)``, in node insertion order."""
    table = {}
    for node in dag.nodes():
        if node.kind is NodeKind.EXCESS:
            continue
        inbound = dag.in_edges(node.id)
        table[node.id] = (
            tuple(e.key for e in inbound),
            tuple(e.fraction for e in inbound),
            tuple(e.key for e in dag.out_edges(node.id) if not e.is_excess),
        )
    return table


def extreme_mixes(
    dag: AssayDAG, limits: HardwareLimits, *, slack: Fraction = Fraction(1)
) -> list[str]:
    """Mix nodes whose smallest non-excess inbound share, times ``slack``,
    is at most ``least count / max capacity``, in topological order."""
    share_limit = limits.least_count / limits.max_capacity
    found = []
    for node_id in dag.topological_order():
        inbound = [e for e in dag.in_edges(node_id) if not e.is_excess]
        if dag.node(node_id).kind is not NodeKind.MIX or len(inbound) < 2:
            continue
        if min(edge.fraction for edge in inbound) * slack <= share_limit:
            found.append(node_id)
    return found
