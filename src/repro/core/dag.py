"""Assay DAG intermediate representation (paper Section 3.1).

An assay is represented as a directed acyclic graph.  Nodes are operations
(typically volume-aggregating operations such as mixes) plus the input fluids;
edges represent *true dependences* — fluid flowing from the producer to the
consumer — and are annotated with the fraction of the consumer's total input
that the producing fluid contributes.

For the paper's running example (Figure 2)::

    K = mix A:B in ratio 1:4      ->  edge A->K fraction 1/5, B->K fraction 4/5
    L = mix B:C in ratio 2:1      ->  edge B->L fraction 2/3, C->L fraction 1/3
    M = mix K:L in ratio 2:1      ->  edge K->M fraction 2/3, L->M fraction 1/3
    N = mix L:C in ratio 2:3      ->  edge L->N fraction 2/5, C->N fraction 3/5

Conventions used throughout the code base:

* An **input node** has no inbound edges (a source fluid loaded from a port).
* An **output node** has no outbound edges; DAGSolve normalises all output
  volumes to ``Vnorm = 1``.
* Each non-input node's inbound edge fractions sum to exactly 1; all ratio
  bookkeeping is done with :class:`fractions.Fraction` so this is checkable
  without tolerance.
* ``output_fraction`` captures the paper's constraint class 5 ("relative node
  output to input"): a separator that keeps 30% of its input has
  ``output_fraction = 3/10``.  Flow-conserving operations use 1.
* ``unknown_volume`` marks operations (separations, reactive mixes) whose
  output volume can only be measured at run time (paper Section 3.5); the
  partitioner cuts the DAG at these nodes.
* **Excess nodes** (:attr:`NodeKind.EXCESS`) model the statically computable
  discarded output introduced by cascading (paper Section 3.4.1, Figure 7).
  Their companion edge is flagged ``is_excess`` and the producing node
  records the discarded share in ``excess_fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum, unique
from fractions import Fraction
from collections.abc import Iterable, Iterator, Mapping, Sequence

from .errors import CycleError, DagError, RatioError
from .limits import Number, as_fraction

__all__ = [
    "NodeKind",
    "Node",
    "Edge",
    "AssayDAG",
    "fractions_from_ratio",
]


@unique
class NodeKind(Enum):
    """Operation type of a DAG node."""

    INPUT = "input"
    #: run-time measured fluid entering a partition (Section 3.5).
    CONSTRAINED_INPUT = "constrained_input"
    MIX = "mix"
    HEAT = "heat"          # incubate / concentrate: flow-conserving unary ops
    SEPARATE = "separate"  # output volume is a fraction of input, often unknown
    SENSE = "sense"        # non-destructive read; kept for completeness
    OUTPUT = "output"      # explicit sink (rarely needed; leaves are outputs)
    EXCESS = "excess"      # statically computed discard from cascading

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NodeKind.{self.name}"


def fractions_from_ratio(ratio: Sequence[Number]) -> list[Fraction]:
    """Convert a mix ratio such as ``(1, 4)`` into fractions ``[1/5, 4/5]``.

    Raises:
        RatioError: if the ratio is empty or contains a non-positive part.
    """
    parts = [as_fraction(part) for part in ratio]
    if not parts:
        raise RatioError("mix ratio must have at least one part")
    if any(part <= 0 for part in parts):
        raise RatioError(f"mix ratio parts must be positive, got {ratio!r}")
    total = sum(parts)
    return [part / total for part in parts]


@dataclass
class Node:
    """A single operation (or input fluid) in the assay DAG.

    Attributes:
        id: unique identifier within the DAG.
        kind: operation type.
        ratio: declared mix ratio as integers, kept for provenance and for
            the cascading transform (which needs the original skew).
        output_fraction: output volume relative to total input volume
            (constraint class 5).  ``None`` only while ``unknown_volume``.
        unknown_volume: output volume must be measured at run time.
        excess_fraction: share of this node's production that is discarded
            through an excess edge (0 for ordinary nodes).
        min_volume: optional functional-unit minimum beyond the global least
            count (e.g. a separator's minimum loadable volume).
        capacity: optional per-node capacity overriding the machine maximum.
        no_excess: programmer-flagged fluid for which excess production is
            disallowed (safety/cost/regulation; Section 3.4.1).
        available_volume: for CONSTRAINED_INPUT nodes, the measured volume
            available at run time (``None`` until measured).
        label: human-readable name (fluid or operation name).
        meta: free-form annotations (source location, provenance of
            transforms, ...).
    """

    id: str
    kind: NodeKind
    ratio: tuple[int, ...] | None = None
    output_fraction: Fraction | None = Fraction(1)
    unknown_volume: bool = False
    excess_fraction: Fraction = Fraction(0)
    min_volume: Fraction | None = None
    capacity: Fraction | None = None
    no_excess: bool = False
    available_volume: Fraction | None = None
    label: str | None = None
    meta: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.output_fraction is not None:
            self.output_fraction = as_fraction(self.output_fraction)
        self.excess_fraction = as_fraction(self.excess_fraction)
        if not (0 <= self.excess_fraction < 1):
            raise RatioError(
                f"node {self.id!r}: excess_fraction must be in [0, 1), "
                f"got {self.excess_fraction}"
            )
        if self.min_volume is not None:
            self.min_volume = as_fraction(self.min_volume)
        if self.capacity is not None:
            self.capacity = as_fraction(self.capacity)
        if self.available_volume is not None:
            self.available_volume = as_fraction(self.available_volume)

    @property
    def display_name(self) -> str:
        return self.label or self.id

    def copy(self) -> "Node":
        return replace(self, meta=dict(self.meta))


@dataclass
class Edge:
    """Fluid flow from ``src`` to ``dst``.

    ``fraction`` is the share of ``dst``'s *total input volume* contributed
    by ``src``.  All inbound fractions of a node sum to 1 (validated by
    :meth:`AssayDAG.validate`).  Excess edges are exempt: their volume is a
    share of the *producer's* output instead, recorded on the producer as
    ``excess_fraction``.
    """

    src: str
    dst: str
    fraction: Fraction = Fraction(1)
    is_excess: bool = False

    def __post_init__(self) -> None:
        self.fraction = as_fraction(self.fraction)
        if self.fraction <= 0:
            raise RatioError(
                f"edge {self.src!r}->{self.dst!r}: fraction must be positive"
            )

    @property
    def key(self) -> tuple[str, str]:
        return (self.src, self.dst)

    def copy(self) -> "Edge":
        return replace(self)


class AssayDAG:
    """Mutable assay DAG with exact-rational edge annotations.

    The class enforces referential integrity eagerly (edges may only connect
    existing nodes; parallel edges are rejected) and structural invariants
    (acyclicity, fractions summing to one) on demand via :meth:`validate`.
    """

    def __init__(self, name: str = "assay") -> None:
        self.name = name
        self._nodes: dict[str, Node] = {}
        self._edges: dict[tuple[str, str], Edge] = {}
        self._out: dict[str, list[tuple[str, str]]] = {}
        self._in: dict[str, list[tuple[str, str]]] = {}
        #: memoized topological order; None until computed, dropped on any
        #: structural mutation.  DAGSolve/LP/certify all walk the same
        #: frozen DAG repeatedly, so the Kahn pass would otherwise rerun
        #: on every pass.
        self._topo_cache: list[str] | None = None
        #: structure-derived caches (e.g. DAGSolve's flat backward-pass
        #: context), cleared together with the topological order on any
        #: structural mutation.  Entries must not bake in mutable node
        #: attributes such as ``capacity``, ``min_volume`` or
        #: ``available_volume``.
        self._derived: dict[str, object] = {}

    def _invalidate_structure(self) -> None:
        self._topo_cache = None
        if self._derived:
            self._derived.clear()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> Node:
        if node.id in self._nodes:
            raise DagError(f"duplicate node id {node.id!r}")
        self._invalidate_structure()
        self._nodes[node.id] = node
        self._out[node.id] = []
        self._in[node.id] = []
        return node

    def add_edge(self, edge: Edge) -> Edge:
        if edge.src not in self._nodes:
            raise DagError(f"edge source {edge.src!r} not in DAG")
        if edge.dst not in self._nodes:
            raise DagError(f"edge destination {edge.dst!r} not in DAG")
        if edge.src == edge.dst:
            raise DagError(f"self-loop on {edge.src!r}")
        if edge.key in self._edges:
            raise DagError(f"parallel edge {edge.src!r}->{edge.dst!r}")
        self._invalidate_structure()
        self._edges[edge.key] = edge
        self._out[edge.src].append(edge.key)
        self._in[edge.dst].append(edge.key)
        return edge

    # -- convenience constructors used by the assay library and tests -----
    def add_input(self, node_id: str, *, label: str | None = None, **kwargs) -> Node:
        """Add a source fluid (no inbound edges)."""
        return self.add_node(
            Node(node_id, NodeKind.INPUT, label=label or node_id, **kwargs)
        )

    def add_mix(
        self,
        node_id: str,
        parts: Mapping[str, Number] | Sequence[tuple[str, Number]],
        *,
        label: str | None = None,
        **kwargs,
    ) -> Node:
        """Add a mix of existing nodes in the given integer ratio.

        ``parts`` maps producing node id -> ratio part, e.g.
        ``dag.add_mix("K", {"A": 1, "B": 4})`` for "mix A:B in ratio 1:4".
        """
        items = list(parts.items()) if isinstance(parts, Mapping) else list(parts)
        if not items:
            raise RatioError(f"mix {node_id!r} needs at least one source")
        ratio = tuple(int(part) for __, part in items)
        fractions = fractions_from_ratio([part for __, part in items])
        node = self.add_node(
            Node(node_id, NodeKind.MIX, ratio=ratio, label=label or node_id, **kwargs)
        )
        for (src, __), fraction in zip(items, fractions):
            self.add_edge(Edge(src, node_id, fraction))
        return node

    def add_unary(
        self,
        node_id: str,
        src: str,
        *,
        kind: NodeKind = NodeKind.HEAT,
        output_fraction: Number = 1,
        unknown_volume: bool = False,
        label: str | None = None,
        **kwargs,
    ) -> Node:
        """Add a single-input operation (incubate, separate, sense, ...)."""
        node = self.add_node(
            Node(
                node_id,
                kind,
                output_fraction=None if unknown_volume else as_fraction(output_fraction),
                unknown_volume=unknown_volume,
                label=label or node_id,
                **kwargs,
            )
        )
        self.add_edge(Edge(src, node_id, Fraction(1)))
        return node

    def remove_edge(self, src: str, dst: str) -> Edge:
        key = (src, dst)
        if key not in self._edges:
            raise DagError(f"no edge {src!r}->{dst!r}")
        self._invalidate_structure()
        edge = self._edges.pop(key)
        self._out[src].remove(key)
        self._in[dst].remove(key)
        return edge

    def remove_node(self, node_id: str) -> Node:
        """Remove a node and all its incident edges."""
        if node_id not in self._nodes:
            raise DagError(f"no node {node_id!r}")
        for key in list(self._in[node_id]):
            self.remove_edge(*key)
        for key in list(self._out[node_id]):
            self.remove_edge(*key)
        self._invalidate_structure()
        del self._in[node_id]
        del self._out[node_id]
        return self._nodes.pop(node_id)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def node(self, node_id: str) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise DagError(f"no node {node_id!r}") from None

    def edge(self, src: str, dst: str) -> Edge:
        try:
            return self._edges[(src, dst)]
        except KeyError:
            raise DagError(f"no edge {src!r}->{dst!r}") from None

    def has_edge(self, src: str, dst: str) -> bool:
        return (src, dst) in self._edges

    def nodes(self) -> Iterator[Node]:
        return iter(list(self._nodes.values()))

    def node_ids(self) -> list[str]:
        return list(self._nodes)

    def edges(self) -> Iterator[Edge]:
        return iter(list(self._edges.values()))

    def in_edges(self, node_id: str) -> list[Edge]:
        return [self._edges[key] for key in self._in[node_id]]

    def out_edges(self, node_id: str) -> list[Edge]:
        return [self._edges[key] for key in self._out[node_id]]

    def predecessors(self, node_id: str) -> list[str]:
        return [src for (src, __) in self._in[node_id]]

    def successors(self, node_id: str) -> list[str]:
        return [dst for (__, dst) in self._out[node_id]]

    def in_degree(self, node_id: str) -> int:
        return len(self._in[node_id])

    def out_degree(self, node_id: str) -> int:
        return len(self._out[node_id])

    def inputs(self) -> list[Node]:
        """Source nodes: INPUT and CONSTRAINED_INPUT kinds plus any node
        without inbound edges."""
        return [
            node
            for node in self._nodes.values()
            if not self._in[node.id]
        ]

    def outputs(self) -> list[Node]:
        """Sink nodes (no outbound edges), excluding excess sinks.

        The paper's DAGSolve normalises these to ``Vnorm = 1``.  Excess
        nodes are sinks too, but their volume is derived, not normalised.
        """
        return [
            node
            for node in self._nodes.values()
            if not self._out[node.id] and node.kind is not NodeKind.EXCESS
        ]

    def excess_nodes(self) -> list[Node]:
        return [n for n in self._nodes.values() if n.kind is NodeKind.EXCESS]

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def topological_order(self) -> list[str]:
        """Kahn's algorithm; raises :class:`CycleError` on cycles.

        Ties are broken by insertion order so results are deterministic.
        The order is memoized until the next structural mutation; callers
        receive a fresh list each time, so mutating the result is safe.
        """
        if self._topo_cache is not None:
            return list(self._topo_cache)
        indegree = {node_id: len(self._in[node_id]) for node_id in self._nodes}
        ready = [node_id for node_id in self._nodes if indegree[node_id] == 0]
        order: list[str] = []
        cursor = 0
        while cursor < len(ready):
            node_id = ready[cursor]
            cursor += 1
            order.append(node_id)
            for (__, dst) in self._out[node_id]:
                indegree[dst] -= 1
                if indegree[dst] == 0:
                    ready.append(dst)
        if len(order) != len(self._nodes):
            stuck = sorted(set(self._nodes) - set(order))
            raise CycleError(f"assay graph has a cycle through {stuck}")
        self._topo_cache = order
        return list(order)

    def reverse_topological_order(self) -> list[str]:
        return list(reversed(self.topological_order()))

    def ancestors(self, node_id: str) -> list[str]:
        """All transitive predecessors of ``node_id`` (the DAG-level backward
        slice), in no particular order, excluding ``node_id`` itself."""
        self.node(node_id)
        seen: set[str] = set()
        stack = list(self.predecessors(node_id))
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.predecessors(current))
        return list(seen)

    def descendants(self, node_id: str) -> list[str]:
        """All transitive successors of ``node_id``, excluding itself."""
        self.node(node_id)
        seen: set[str] = set()
        stack = list(self.successors(node_id))
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.successors(current))
        return list(seen)

    def validate(self) -> None:
        """Check structural invariants; raises on the first violation.

        * graph is acyclic;
        * every non-source node's non-excess inbound fractions sum to 1;
        * excess edges originate from nodes with a matching
          ``excess_fraction`` and terminate in EXCESS nodes;
        * EXCESS nodes have exactly one inbound edge and no outbound edges;
        * unknown-volume nodes carry no static ``output_fraction``.
        """
        self.topological_order()
        for node in self._nodes.values():
            inbound = [e for e in self.in_edges(node.id) if not e.is_excess]
            if inbound:
                total = sum(edge.fraction for edge in inbound)
                if total != 1:
                    raise RatioError(
                        f"node {node.id!r}: inbound fractions sum to {total}, "
                        "expected 1"
                    )
            if node.kind is NodeKind.EXCESS:
                if self.out_degree(node.id) != 0:
                    raise DagError(f"excess node {node.id!r} must be a sink")
                if self.in_degree(node.id) != 1:
                    raise DagError(
                        f"excess node {node.id!r} must have exactly one "
                        "inbound edge"
                    )
                (edge,) = self.in_edges(node.id)
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
        for edge in self._edges.values():
            if edge.is_excess:
                src = self._nodes[edge.src]
                dst = self._nodes[edge.dst]
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

    # ------------------------------------------------------------------
    # copying / rendering
    # ------------------------------------------------------------------
    def copy(self, name: str | None = None) -> "AssayDAG":
        clone = AssayDAG(name or self.name)
        for node in self._nodes.values():
            clone.add_node(node.copy())
        for edge in self._edges.values():
            clone.add_edge(edge.copy())
        return clone

    def subgraph(self, node_ids: Iterable[str], name: str | None = None) -> "AssayDAG":
        """Induced subgraph over ``node_ids`` (copies nodes and inner edges)."""
        keep = set(node_ids)
        missing = keep - set(self._nodes)
        if missing:
            raise DagError(f"subgraph refers to unknown nodes {sorted(missing)}")
        sub = AssayDAG(name or f"{self.name}.sub")
        for node_id in self._nodes:  # preserve insertion order
            if node_id in keep:
                sub.add_node(self._nodes[node_id].copy())
        for edge in self._edges.values():
            if edge.src in keep and edge.dst in keep:
                sub.add_edge(edge.copy())
        return sub

    def to_dot(self) -> str:
        """Graphviz rendering for documentation and debugging."""
        lines = [f'digraph "{self.name}" {{', "  rankdir=TB;"]
        for node in self._nodes.values():
            shape = {
                NodeKind.INPUT: "ellipse",
                NodeKind.CONSTRAINED_INPUT: "diamond",
                NodeKind.EXCESS: "octagon",
            }.get(node.kind, "box")
            lines.append(
                f'  "{node.id}" [label="{node.display_name}" shape={shape}];'
            )
        for edge in self._edges.values():
            style = " style=dashed" if edge.is_excess else ""
            lines.append(
                f'  "{edge.src}" -> "{edge.dst}" [label="{edge.fraction}"{style}];'
            )
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AssayDAG({self.name!r}, nodes={self.node_count}, "
            f"edges={self.edge_count})"
        )
