"""Reference reservoir allocator: every release rescans the live set.

This is :class:`repro.ir.regalloc.ReservoirAllocator` as it was before it
kept its live fluids by last use: at each DAG node of the execution
order it rescans every live reservoir owner and frees those whose last
use has passed, in the order they were taken.
``tests/properties/test_regalloc_equivalence.py`` requires the
production allocator to give the same assignment (reservoirs, ports,
auxiliary loads, storage-less nodes and peak usage, in the same order)
or the same :class:`~repro.ir.regalloc.AllocationError` message.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.dag import AssayDAG, NodeKind
from repro.ir.regalloc import AllocationError, ReservoirAssignment
from repro.machine.spec import MachineSpec

__all__ = ["ReservoirAllocator"]


class ReservoirAllocator:
    """Linear-scan allocator over a DAG execution order."""

    def __init__(self, spec: MachineSpec) -> None:
        self.spec = spec

    def allocate(
        self,
        dag: AssayDAG,
        order: Sequence[str],
        *,
        aux_fluids: Sequence[str] = (),
        storage_less: bool = True,
    ) -> ReservoirAssignment:
        """Allocate reservoirs and ports for one execution order.

        Args:
            dag: the (possibly transformed) volume DAG.
            order: execution order over all of the DAG's node ids.
            aux_fluids: names of matrix/pusher fluids that need a reservoir
                and port but are not DAG nodes.
            storage_less: keep single-immediate-use fluids in their
                functional unit (the AIS feature).  ``False`` parks every
                consumed intermediate in a reservoir — the baseline AIS's
                design argument is made against (see the
                ``bench_storage_less`` ablation).

        Raises:
            AllocationError: not enough reservoirs or input ports.
        """
        position = {node_id: i for i, node_id in enumerate(order)}
        missing = [n.id for n in dag.nodes() if n.id not in position]
        if missing:
            raise AllocationError(
                f"execution order does not cover nodes {missing[:5]}"
            )

        free = list(self.spec.reservoir_names())
        free_ports = list(self.spec.input_port_names())
        result = ReservoirAssignment()
        in_use: dict[str, str] = {}  # node id -> reservoir

        def take_reservoir(owner: str) -> str:
            if not free:
                raise AllocationError(
                    f"out of reservoirs while allocating {owner!r} "
                    f"({self.spec.n_reservoirs} available on "
                    f"{self.spec.name!r}); the assay exceeds the PLoC's "
                    "resources"
                )
            reservoir = free.pop(0)
            in_use[owner] = reservoir
            result.peak_usage = max(result.peak_usage, len(in_use))
            return reservoir

        def take_port(owner: str) -> str:
            if not free_ports:
                raise AllocationError(
                    f"out of input ports while allocating {owner!r}"
                )
            return free_ports.pop(0)

        def release(owner: str) -> None:
            reservoir = in_use.pop(owner, None)
            if reservoir is not None:
                free.append(reservoir)

        def last_use(node_id: str) -> int:
            consumers = [
                position[e.dst]
                for e in dag.out_edges(node_id)
                if not e.is_excess
            ]
            return max(consumers, default=position[node_id])

        # -- inputs and constrained inputs: live from the program start ---
        source_kinds = (NodeKind.INPUT, NodeKind.CONSTRAINED_INPUT)
        sources = sorted(
            (n for n in dag.nodes() if n.kind in source_kinds),
            key=lambda n: position[n.id],
        )
        for node in sources:
            reservoir = take_reservoir(node.id)
            result.reservoir_of[node.id] = reservoir
            if node.kind is NodeKind.INPUT:
                result.port_of[node.id] = take_port(node.id)
        for name in aux_fluids:
            reservoir = take_reservoir(f"aux:{name}")
            port = take_port(f"aux:{name}")
            result.aux[name] = (reservoir, port)

        # -- walk the execution order ------------------------------------
        events: list[tuple[int, str]] = sorted(
            ((position[n.id], n.id) for n in dag.nodes()),
            key=lambda item: item[0],
        )
        death = {node_id: last_use(node_id) for node_id in position}
        for when, node_id in events:
            node = dag.node(node_id)
            # free everything whose last use has passed
            for owner in [o for o, __ in in_use.items()]:
                if owner.startswith("aux:"):
                    continue
                if death.get(owner, -1) < when and owner != node_id:
                    # inputs freed after their last use, intermediates too
                    if position.get(owner, when) < when:
                        release(owner)
            if node.kind in source_kinds or node.kind is NodeKind.EXCESS:
                continue
            consumers = [
                position[e.dst]
                for e in dag.out_edges(node_id)
                if not e.is_excess
            ]
            is_storage_less = (
                len(consumers) == 1 and consumers[0] == when + 1
            ) and storage_less
            if not consumers or is_storage_less:
                # fluids nobody consumes (final products) always stay in
                # their unit; consumed intermediates only with the feature
                result.storage_less.add(node_id)
                continue
            result.reservoir_of[node_id] = take_reservoir(node_id)
        return result
