"""Reference replication loop: every verdict in Fraction arithmetic.

This is :func:`repro.core.replication.iterative_replication` as it was
before its verdicts moved to DAGSolve's integers: each round solves with
the Fraction oracle (:mod:`oracles.dagsolve`), whose plain-dict
assignments take the Fraction path of ``violations()`` and ``min_edge()``,
and finds the binding node by comparing ``capacity / load`` Fractions.
The rewrite itself (``_replicate_in_place``) and the copy count
(``needed_copies``) are shared with production: they are not under test.
"""

from __future__ import annotations

from repro.core.dag import AssayDAG
from repro.core.errors import ResourceExhaustedError
from repro.core.limits import HardwareLimits
from repro.core.replication import (
    ReplicationReport,
    _replicate_in_place,
    needed_copies,
)

from oracles.dagsolve import compute_vnorms, dispense

__all__ = ["iterative_replication"]


def iterative_replication(
    dag: AssayDAG,
    limits: HardwareLimits,
    *,
    max_rounds: int = 8,
    max_total_nodes: int | None = None,
) -> tuple[AssayDAG, list[ReplicationReport]]:
    """Replicate binding nodes until DAGSolve stops underflowing."""
    current = dag
    reports: list[ReplicationReport] = []
    for __ in range(max_rounds):
        vnorms = compute_vnorms(current)
        assignment = dispense(current, vnorms, limits)
        underflows = [
            v for v in assignment.violations() if v.kind != "overflow"
        ]
        if not underflows:
            return current, reports
        min_key, min_volume = assignment.min_edge()
        min_vnorm = vnorms.edge_vnorm[min_key]
        required_scale = limits.least_count / min_vnorm

        # Find the binding node: the one whose capacity bound yields the
        # current (insufficient) scale.
        binding_id = None
        binding_bound = None
        for node in current.nodes():
            load = max(
                vnorms.node_vnorm[node.id], vnorms.node_input_vnorm[node.id]
            )
            if load == 0:
                continue
            capacity = node.capacity or limits.max_capacity
            bound = capacity / load
            if binding_bound is None or bound < binding_bound:
                binding_bound = bound
                binding_id = node.id
        assert binding_id is not None and binding_bound is not None
        if binding_bound >= required_scale:
            raise ResourceExhaustedError(
                "replication cannot raise the minimum volume "
                f"({float(min_volume):.4g} nl at {min_key}); the scale is "
                "not capacity-limited"
            )
        binding = current.node(binding_id)
        uses = [
            e for e in current.out_edges(binding_id) if not e.is_excess
        ]
        capacity = binding.capacity or limits.max_capacity
        load = max(
            vnorms.node_vnorm[binding_id],
            vnorms.node_input_vnorm[binding_id],
        )
        copies = min(len(uses), needed_copies(load, capacity, required_scale))
        if copies < 2:
            raise ResourceExhaustedError(
                f"binding node {binding_id!r} has too few uses to replicate"
            )
        weights = {e.key: vnorms.edge_vnorm[e.key] for e in uses}
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
