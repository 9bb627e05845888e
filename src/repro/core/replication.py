"""Static replication for heavily-used fluids (paper Section 3.4.2).

When a fluid has so many uses that even a reservoir filled to maximum
capacity cannot cover them at useful per-use volumes, the paper replicates
(part of) the backward slice of the fluid's production: the heavily-used
node is copied ``k`` times and its uses are distributed "as evenly as
possible" among the replicas.  Each replica then holds ``1/k`` of the load,
which lowers the DAG's maximum Vnorm and therefore *raises* every dispensed
volume (volumes scale inversely with the maximum Vnorm).

Replication proceeds iteratively — one node (level) at a time, re-running
DAGSolve after each rewrite — rather than replicating the whole backward
slice at once, because one-shot replication may exhaust PLoC resources in
cases where the iterative procedure succeeds.  The rewrite is purely
structural, so the LP formulation applies to the replicated DAG unchanged.

In the enzyme assay (paper Figure 14) the diluent input (Vnorm 81 after
cascading) is replicated three ways; each replica drops to Vnorm 27 and the
minimum dispensed volume triples from 65.6 pl to ~197 pl, clearing the
least count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil
from collections.abc import Mapping

from .dag import AssayDAG, Edge, Node, NodeKind
from .dagsolve import _scaled_vnorms, compute_vnorms, dispense
from .errors import DagError, ResourceExhaustedError
from .limits import HardwareLimits

__all__ = [
    "ReplicationReport",
    "replicate_node",
    "needed_copies",
    "iterative_replication",
]

EdgeKey = tuple[str, str]


@dataclass(frozen=True)
class ReplicationReport:
    """Provenance of one replication rewrite."""

    node: str
    copies: int
    replica_ids: tuple[str, ...]
    #: consumer node ids served by each replica, in replica order.
    distribution: tuple[tuple[str, ...], ...]

    def __str__(self) -> str:
        return f"replicate {self.node} x{self.copies}"


def _check_replicable(dag: AssayDAG, node_id: str) -> Node:
    node = dag.node(node_id)
    if node.kind in (NodeKind.EXCESS, NodeKind.CONSTRAINED_INPUT):
        raise DagError(f"cannot replicate {node.kind.value} node {node_id!r}")
    if node.unknown_volume:
        raise DagError(
            f"cannot replicate unknown-volume node {node_id!r}; its output "
            "exists only at run time"
        )
    if any(edge.is_excess for edge in dag.out_edges(node_id)):
        raise DagError(
            f"cannot replicate cascade intermediate {node_id!r}; replicate "
            "its inputs instead"
        )
    return node


def _balanced_partition(
    items: list[tuple[EdgeKey, Fraction]], bins: int
) -> list[list[EdgeKey]]:
    """Longest-processing-time greedy partition of weighted uses.

    This realises the paper's "distribute the original outbound uses as
    evenly as possible between the replicas" with Vnorm-weighted balance:
    symmetric workloads (like the enzyme assay's three reagent fans) come
    out perfectly even.
    """
    buckets: list[list[EdgeKey]] = [[] for __ in range(bins)]
    loads = [Fraction(0)] * bins
    for key, weight in sorted(items, key=lambda kv: (-kv[1], kv[0])):
        target = min(range(bins), key=lambda b: (loads[b], b))
        buckets[target].append(key)
        loads[target] += weight
    return buckets


def replicate_node(
    dag: AssayDAG,
    node_id: str,
    copies: int,
    *,
    weights: Mapping[EdgeKey, Fraction] | None = None,
) -> tuple[AssayDAG, ReplicationReport]:
    """Copy ``node_id`` ``copies`` times and distribute its uses evenly.

    The original node acts as replica 1; fresh nodes ``<id>.rep2``, ... are
    added.  Internal nodes also copy their inbound edges (which is what
    "replicating a level of the backward slice" means: the predecessors now
    feed every replica and their own use counts grow accordingly).

    Ownership: ``dag`` is never mutated.  The rewrite is applied to one
    copy, which is returned together with a provenance report.

    Args:
        weights: optional per-use weights (edge Vnorms) used to balance the
            distribution; unweighted uses count 1 each.
    """
    new_dag = dag.copy()
    report = _replicate_in_place(new_dag, node_id, copies, weights=weights)
    return new_dag, report


def _replicate_in_place(
    dag: AssayDAG,
    node_id: str,
    copies: int,
    *,
    weights: Mapping[EdgeKey, Fraction] | None,
) -> ReplicationReport:
    """The replication rewrite itself, applied to ``dag`` in place.

    Only ever called on a DAG the caller owns (a private working copy):
    on an error the DAG may be left half rewritten.
    """
    if copies < 2:
        raise ValueError("copies must be >= 2")
    node = _check_replicable(dag, node_id)
    uses = [e for e in dag.out_edges(node_id) if not e.is_excess]
    if len(uses) < copies:
        raise DagError(
            f"node {node_id!r} has {len(uses)} uses; cannot spread them "
            f"over {copies} replicas"
        )

    weighted = [
        (edge.key, (weights or {}).get(edge.key, Fraction(1)))
        for edge in uses
    ]
    buckets = _balanced_partition(weighted, copies)

    # Allocate fresh replica ids: a node can be replicated again in a later
    # iteration (its replicas from the previous round are still in the DAG),
    # so skip suffixes that are already taken.
    replica_ids = [node_id]
    suffix = 2
    while len(replica_ids) < copies:
        candidate = f"{node_id}.rep{suffix}"
        if candidate not in dag:
            replica_ids.append(candidate)
        suffix += 1
    inbound = [e.copy() for e in dag.in_edges(node_id)]
    for replica_id in replica_ids[1:]:
        replica = node.copy()
        replica.id = replica_id
        replica.label = f"{node.display_name} (replica)"
        replica.meta = dict(node.meta)
        replica.meta["replica_of"] = node_id
        dag.add_node(replica)
        for edge in inbound:
            dag.add_edge(Edge(edge.src, replica_id, edge.fraction))
    # Reassign uses: bucket 0 keeps the original producer.
    for replica_id, bucket in zip(replica_ids, buckets):
        if replica_id == node_id:
            continue
        for (__, dst) in bucket:
            moved = dag.remove_edge(node_id, dst)
            dag.add_edge(Edge(replica_id, dst, moved.fraction))
    return ReplicationReport(
        node=node_id,
        copies=copies,
        replica_ids=tuple(replica_ids),
        distribution=tuple(
            tuple(dst for (__, dst) in bucket) for bucket in buckets
        ),
    )


def needed_copies(
    load_vnorm: Fraction,
    capacity: Fraction,
    required_scale: Fraction,
) -> int:
    """Replica count needed so ``load/k`` fits ``capacity`` at the scale
    that lifts the smallest dispensed volume to the least count."""
    if required_scale <= 0:
        raise ValueError("required_scale must be positive")
    exact = load_vnorm * required_scale / capacity
    return max(2, ceil(exact))


def iterative_replication(
    dag: AssayDAG,
    limits: HardwareLimits,
    *,
    max_rounds: int = 8,
    max_total_nodes: int | None = None,
) -> tuple[AssayDAG, list[ReplicationReport]]:
    """Replicate binding nodes until DAGSolve stops underflowing.

    Each round recomputes Vnorms, finds the node whose capacity bound pins
    the global scale, and replicates it just enough to lift the minimum
    dispensed volume to the least count.  Stops when feasible, when no
    progress is possible (the underflow is not capacity-limited, e.g. a
    still-extreme mix ratio that needs cascading instead), or when the
    resource budget is exhausted — mirroring "the replicated code may exceed
    the PLoC's resources; in such cases, compilation fails".

    Ownership: ``dag`` is never mutated, not even when a round raises after
    earlier rewrites.  The first rewrite copies it once and every rewrite
    is then applied in place on that private copy.

    There is no planning-objective parameter on purpose: ``dispense``
    keeps the same feasibility window under every objective (``waste``
    only moves the anchor inside it), so which nodes underflow, which node
    binds and how many copies it needs are the same under all of them.

    Every verdict is taken on DAGSolve's integers (one shared denominator
    ``M`` per round): the binding search compares ``capacity / load`` as
    integer ratios, and Fractions are built only for the copy count (the
    binding node's load and the required scale), the chosen weights, and
    error text.
    """
    current = dag
    reports: list[ReplicationReport] = []
    max_capacity = limits.max_capacity
    least_count = limits.least_count
    for __ in range(max_rounds):
        vnorms = compute_vnorms(current)
        assignment = dispense(current, vnorms, limits)
        underflows = [
            v for v in assignment.violations() if v.kind != "overflow"
        ]
        if not underflows:
            return current, reports
        min_key, min_volume = assignment.min_edge()
        node_vn, node_in, edge_vn, scale = _scaled_vnorms(vnorms)
        min_vnorm = edge_vn[min_key]

        # Find the binding node: the one whose capacity bound yields the
        # current (insufficient) scale.  Its bound ``capacity / (load/M)``
        # is held as the pair (cap_num, cap_den * load): M is common to
        # every node and cancels.
        binding_id = None
        bound_num = bound_den = 0
        for node in current.nodes():
            load = max(node_vn[node.id], node_in[node.id])
            if load == 0:
                continue
            capacity = node.capacity or max_capacity
            num = capacity.numerator
            den = capacity.denominator * load
            if binding_id is None or num * bound_den < bound_num * den:
                bound_num, bound_den = num, den
                binding_id = node.id
        assert binding_id is not None
        # required scale = least_count / (min_vnorm/M); M cancels again.
        if (
            bound_num * least_count.denominator * min_vnorm
            >= least_count.numerator * bound_den
        ):
            # Capacity is not the limiter; replication cannot help (the
            # constrained input or the ratio itself binds).
            raise ResourceExhaustedError(
                "replication cannot raise the minimum volume "
                f"({float(min_volume):.4g} nl at {min_key}); the scale is "
                "not capacity-limited"
            )
        binding = current.node(binding_id)
        uses = [
            e for e in current.out_edges(binding_id) if not e.is_excess
        ]
        capacity = binding.capacity or max_capacity
        load = Fraction(
            max(node_vn[binding_id], node_in[binding_id]), scale
        )
        required_scale = least_count * Fraction(scale, min_vnorm)
        copies = min(len(uses), needed_copies(load, capacity, required_scale))
        if copies < 2:
            raise ResourceExhaustedError(
                f"binding node {binding_id!r} has too few uses to replicate"
            )
        weights = {
            e.key: vnorms.edge_vnorm[e.key] for e in uses
        }
        if current is dag:
            current = dag.copy()
        reports.append(
            _replicate_in_place(current, binding_id, copies, weights=weights)
        )
        if max_total_nodes is not None and current.node_count > max_total_nodes:
            raise ResourceExhaustedError(
                f"replication grew the DAG to {current.node_count} nodes, "
                f"exceeding the PLoC budget of {max_total_nodes}"
            )
    raise ResourceExhaustedError(
        f"underflow persists after {max_rounds} replication rounds"
    )
