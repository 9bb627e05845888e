"""Reservoir allocation: registers for fluids.

The paper (Section 2.1): "the number of reservoirs is fixed and limited,
and current LoC technology does not provide a dense equivalent (such as
DRAM or disk), hence careful compile-time allocation is required."

Allocation is a linear scan over the execution order of the volume DAG:

* every natural input fluid gets a reservoir (and an input port) for its
  whole live range — inputs are loaded once at the top of the program,
  exactly like the listings in paper Figures 9-11;
* an intermediate fluid is **storage-less** when its single consumer is the
  next operation in sequence (the common case the AIS operand design
  targets); it stays in the functional unit that produced it;
* any other intermediate is parked in a reservoir from its production to
  its last use;
* running out of reservoirs raises :class:`AllocationError` — this is the
  "compilation fails" outcome static replication can trigger when it grows
  the DAG beyond the PLoC's resources (Section 3.4.2).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from collections.abc import Sequence

from ..core.dag import AssayDAG, NodeKind
from ..core.errors import ResourceExhaustedError
from ..machine.spec import MachineSpec

__all__ = ["AllocationError", "ReservoirAssignment", "ReservoirAllocator"]


class AllocationError(ResourceExhaustedError):
    """The assay needs more reservoirs or ports than the machine has.

    A :class:`~repro.core.errors.ResourceExhaustedError`, so every compile
    boundary that reports volume-management failures as coded compile
    errors (CLI, batch, service) reports this one too.
    """


@dataclass
class ReservoirAssignment:
    """Result of allocation: where every fluid lives."""

    #: DAG node id -> reservoir id, for fluids that are parked.
    reservoir_of: dict[str, str] = field(default_factory=dict)
    #: input fluid node id -> input port id.
    port_of: dict[str, str] = field(default_factory=dict)
    #: auxiliary fluids (separator matrix/pusher loads): name -> (reservoir, port).
    aux: dict[str, tuple[str, str]] = field(default_factory=dict)
    #: node ids whose product never touches a reservoir.
    storage_less: set[str] = field(default_factory=set)
    #: peak number of simultaneously-occupied reservoirs.
    peak_usage: int = 0

    def location_of(self, node_id: str) -> str | None:
        return self.reservoir_of.get(node_id)


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
        # the live fluids keyed by the last event that still needs their
        # reservoir (their last use, or their own position if later), then
        # by the order they were taken; auxiliary loads stay all program
        live = [
            (max(death[node.id], position[node.id]), taken, node.id)
            for taken, node in enumerate(sources)
        ]
        heapq.heapify(live)
        taken = len(live)
        for when, node_id in events:
            node = dag.node(node_id)
            # free everything whose last use has passed: every key is some
            # node's position and each event popped the keys below it, so
            # the fluids due here share one key and leave in the order
            # their reservoirs were taken
            while live and live[0][0] < when:
                release(heapq.heappop(live)[2])
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
            heapq.heappush(live, (max(death[node_id], when), taken, node_id))
            taken += 1
        return result
