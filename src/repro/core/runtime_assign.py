"""Run-time volume assignment for partitioned assays (paper Section 3.5).

The division of labour the paper prescribes: *Vnorm calculation stays at
compile time* (it only needs the graph), while the final *dispensing* step
is deferred to run time for partitions whose constrained inputs depend on
measured volumes.  At run time, the assigner computes, for every constrained
input, the ratio of its available volume to its Vnorm, and scales the whole
partition by the minimum of those ratios and the capacity-derived default —
exactly the "minimum ratio" rule of the paper.

The run-time computation is a handful of multiplications per node, which is
why it is cheap enough for the PLoC's electronic control ("a few
milliseconds on a 750-MHz processor" for glycomics in the paper), in
contrast to re-running an LP.

Two classes:

* :class:`RuntimePlanner` — compile-time object: partitions the DAG and
  precomputes Vnorms for every partition.
* :class:`RuntimeSession` — per-execution object: receives measurements,
  hands out partition assignments in dependency order, and records the
  productions of cross-partition exporters automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from collections.abc import Mapping

from .dag import AssayDAG, NodeKind
from .dagsolve import VnormResult, VolumeAssignment, compute_vnorms, dispense
from .errors import PartitionError
from .limits import HardwareLimits, Number, as_fraction
from .partition import Partition, PartitionedAssay, partition_unknown_volumes

__all__ = ["RuntimePlanner", "RuntimeSession"]


class RuntimePlanner:
    """Compile-time half of the statically-unknown pipeline.

    Partitions the DAG and precomputes each partition's Vnorms once; every
    :meth:`session` then reuses them (the paper's point is precisely that
    the expensive graph pass happens offline).
    """

    def __init__(self, dag: AssayDAG, limits: HardwareLimits) -> None:
        self.limits = limits
        self.partitioned: PartitionedAssay = partition_unknown_volumes(
            dag, limits
        )
        self.vnorms: dict[int, VnormResult] = {
            partition.index: compute_vnorms(partition.dag)
            for partition in self.partitioned.partitions
        }

    @property
    def partitions(self) -> list[Partition]:
        return self.partitioned.partitions

    @property
    def n_partitions(self) -> int:
        return self.partitioned.n_partitions

    def session(self) -> "RuntimeSession":
        return RuntimeSession(self)


@dataclass
class RuntimeSession:
    """Stateful walk over the partitions of one assay execution."""

    planner: RuntimePlanner
    #: measured or derived production volumes by original node id.
    productions: dict[str, Fraction] = field(default_factory=dict)
    assignments: dict[int, VolumeAssignment] = field(default_factory=dict)

    def record_measurement(self, node_id: str, volume: Number) -> None:
        """Record the run-time measured output of an unknown-volume node."""
        if node_id not in self.planner.partitioned.measured_sources:
            raise PartitionError(
                f"{node_id!r} is not a measured source of this assay"
            )
        value = as_fraction(volume)
        if value < 0:
            raise PartitionError(f"measured volume must be >= 0, got {volume}")
        self.productions[node_id] = value

    def ready(self, index: int) -> bool:
        """True when every measurement partition ``index`` needs exists."""
        partition = self._partition(index)
        return all(
            (not spec.needs_measurement) or spec.source in self.productions
            for spec in partition.constrained
        )

    def missing_measurements(self, index: int) -> list[str]:
        partition = self._partition(index)
        return [
            spec.source
            for spec in partition.constrained
            if spec.needs_measurement and spec.source not in self.productions
        ]

    def assign(self, index: int) -> VolumeAssignment:
        """Dispense partition ``index`` (the run-time step).

        Fills every constrained input's available volume from the recorded
        measurements (scaled by its conservative share), runs the dispensing
        pass against the precomputed Vnorms, and records the productions of
        any node a later partition imports.
        """
        partition = self._partition(index)
        missing = self.missing_measurements(index)
        if missing:
            raise PartitionError(
                f"partition {index} needs measurements for {missing}"
            )
        dag = partition.dag.copy()
        for spec in partition.constrained:
            node = dag.node(spec.node_id)
            if spec.needs_measurement:
                node.available_volume = (
                    self.productions[spec.source] * spec.share
                )
            else:
                node.available_volume = spec.static_available
        assignment = dispense(
            dag, self.planner.vnorms[partition.index], self.limits
        )
        self.assignments[index] = assignment
        self._record_exports(partition, assignment)
        return assignment

    def assign_all(
        self, measurements: Mapping[str, Number] | None = None
    ) -> dict[int, VolumeAssignment]:
        """Assign every partition in order, given all measurements upfront.

        Convenient for tests and for simulators that model separators with
        known split fractions; real executions interleave
        :meth:`record_measurement` and :meth:`assign` instead.
        """
        for node_id, volume in (measurements or {}).items():
            self.record_measurement(node_id, volume)
        for partition in self.planner.partitions:
            self.assign(partition.index)
        return dict(self.assignments)

    # ------------------------------------------------------------------
    @property
    def limits(self) -> HardwareLimits:
        return self.planner.limits

    def _partition(self, index: int) -> Partition:
        try:
            return self.planner.partitions[index]
        except IndexError:
            raise PartitionError(f"no partition {index}") from None

    def _record_exports(
        self, partition: Partition, assignment: VolumeAssignment
    ) -> None:
        """Exporters with *known* volumes (Figure 8's node X) are derived
        from the partition's own assignment; unknown-volume sinks still wait
        for an explicit measurement."""
        original = self.planner.partitioned.original
        for member in partition.members:
            if member not in self.planner.partitioned.measured_sources:
                continue
            node = original.node(member)
            if node.unknown_volume:
                continue  # a real measurement must be recorded by the caller
            if member in assignment.node_volume:
                self.productions.setdefault(
                    member, assignment.node_volume[member]
                )
