"""Instruction selection: volume DAG -> AIS program.

The generator walks the DAG in a sequence-stable topological order and
emits the instruction shapes of the paper's listings (Figures 9b-11b):

* all ``input`` instructions first, one reservoir + port per primary input
  fluid (plus matrix/pusher loads for separators);
* a mix becomes metered ``move``s into a mixer — printed with the raw
  ratio parts, exactly like ``move mixer1, s2, 4`` — followed by ``mix``;
* incubate/concentrate move the operand into the heater; separations load
  matrix and pusher, move the feed in, and run ``separate.<mode>``;
* **storage-less operands**: a fluid whose single consumer is the next
  operation stays in its functional unit; anything else is parked in its
  allocated reservoir;
* sensing moves the fluid into the sensing cell and reads it; cascade
  excess is explicitly discarded through an output port so the mixer is
  free for the next stage.

Every fluid-bearing instruction carries provenance: ``edge=(src, dst)`` on
moves and ``meta["node"]`` on inputs/separates, which is how the run-time
resolver maps the volume plan onto the program.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from collections.abc import Sequence

from ..core.dag import AssayDAG, Edge, Node, NodeKind
from ..ir import instructions as ais
from ..ir.program import AISProgram
from ..ir.regalloc import AllocationError, ReservoirAllocator, ReservoirAssignment
from ..machine.spec import AQUACORE_SPEC, MachineSpec

__all__ = ["CodegenError", "execution_order", "generate"]

#: default volume loaded for matrix/pusher fluids (whole-reservoir loads
#: outside the ratio-managed DAG).
AUX_LOAD_VOLUME = Fraction(50)


class CodegenError(Exception):
    """Instruction selection failed (unit conflict, missing metadata...)."""


def execution_order(dag: AssayDAG) -> list[str]:
    """Topological order with ties broken by source sequence number.

    Transformed nodes (cascade stages, replicas) inherit their ancestor's
    ``seq`` and sort immediately before it, so generated code stays close
    to the original program order.
    """

    def seq_key(node: Node) -> tuple[float, int, str]:
        seq = node.meta.get("seq")
        if seq is None:
            seq = 10 ** 9  # hand-built DAGs: fall back to insertion order
        stage = node.meta.get("stage", 0)
        return (float(seq), int(stage), node.id)

    indegree = {node.id: dag.in_degree(node.id) for node in dag.nodes()}
    heap: list[tuple[tuple[float, int, str], str]] = []
    for node in dag.nodes():
        if indegree[node.id] == 0:
            heapq.heappush(heap, (seq_key(node), node.id))
    order: list[str] = []
    while heap:
        __, node_id = heapq.heappop(heap)
        order.append(node_id)
        for successor in dag.successors(node_id):
            indegree[successor] -= 1
            if indegree[successor] == 0:
                heapq.heappush(heap, (seq_key(dag.node(successor)), successor))
    if len(order) != dag.node_count:
        raise CodegenError("cycle detected while ordering the DAG")
    return order


class _Generator:
    def __init__(
        self,
        dag: AssayDAG,
        spec: MachineSpec,
        *,
        name: str | None = None,
        aux_fluids: Sequence[str] = (),
        aux_volume: Fraction = AUX_LOAD_VOLUME,
        storage_less: bool = True,
    ) -> None:
        self.dag = dag
        self.spec = spec
        self.name = name or dag.name
        self.aux_fluids = list(dict.fromkeys(aux_fluids))
        self.aux_volume = aux_volume
        self.order = execution_order(dag)
        self.allocator = ReservoirAllocator(spec)
        self.allocation: ReservoirAssignment = self.allocator.allocate(
            dag,
            self.order,
            aux_fluids=self.aux_fluids,
            storage_less=storage_less,
        )
        self.program = AISProgram(self.name, machine=spec.name)
        #: node id -> operand string where its fluid currently sits.
        self.location: dict[str, str] = {}
        #: unit name -> node id currently occupying it (storage-less holds).
        self.occupant: dict[str, str | None] = {}
        #: remaining consumer count per produced node.
        self.pending_uses: dict[str, int] = {}
        self.mixers = [u.name for u in spec.units_of_kind("mixer")]
        self.heaters = [u.name for u in spec.units_of_kind("heater")]
        if not self.mixers or not self.heaters:
            raise CodegenError("machine needs at least one mixer and heater")
        self.waste_port = spec.output_port_names()[-1]
        self._aux_loaded: dict[str, bool] = {}
        #: location name -> its one Operand in this program.
        self._operands: dict[str, ais.Operand] = {}

    # ------------------------------------------------------------------
    def _at(self, location: str) -> ais.Operand:
        """The operand naming ``location``, parsed once per generate call
        (every instruction of the program that names it shares it)."""
        operand = self._operands.get(location)
        if operand is None:
            operand = self._operands[location] = ais.Operand.parse(location)
        return operand

    def _emit(self, instruction: ais.Instruction) -> None:
        """Append an instruction the ``ais`` factory already validated."""
        self.program.instructions.append(instruction)

    # ------------------------------------------------------------------
    def run(self) -> AISProgram:
        self.emit_inputs()
        for node_id in self.order:
            node = self.dag.node(node_id)
            if node.kind in (NodeKind.INPUT, NodeKind.CONSTRAINED_INPUT):
                self.post_production(node)  # senses/outputs on raw inputs
                continue
            if node.kind is NodeKind.EXCESS:
                continue  # handled when its producer finishes
            self.produce(node)
        return self.program

    # ------------------------------------------------------------------
    def emit_inputs(self) -> None:
        source_kinds = (NodeKind.INPUT,)
        sources = [
            node
            for node in self.dag.nodes()
            if node.kind in source_kinds
        ]
        sources.sort(key=lambda n: self.order.index(n.id))
        for node in sources:
            reservoir = self.allocation.reservoir_of[node.id]
            port = self.allocation.port_of[node.id]
            self._emit(
                ais.input_(
                    self._at(reservoir),
                    self._at(port),
                    comment=node.display_name,
                    meta={"node": node.id},
                )
            )
            self.location[node.id] = reservoir
            self.pending_uses[node.id] = self._use_count(node.id)
        for name in self.aux_fluids:
            reservoir, port = self.allocation.aux[name]
            self._emit(
                ais.input_(
                    self._at(reservoir),
                    self._at(port),
                    abs_volume=self.aux_volume,
                    comment=name,
                    meta={"aux": name},
                )
            )
            self._aux_loaded[name] = True
        for node in self.dag.nodes():
            if node.kind is NodeKind.CONSTRAINED_INPUT:
                # The previous partition (or the split input) left this
                # fluid in its allocated reservoir; nothing to emit.
                reservoir = self.allocation.reservoir_of[node.id]
                self.location[node.id] = reservoir
                self.pending_uses[node.id] = self._use_count(node.id)

    def _use_count(self, node_id: str) -> int:
        return sum(
            1 for e in self.dag.out_edges(node_id) if not e.is_excess
        )

    # ------------------------------------------------------------------
    # unit management
    # ------------------------------------------------------------------
    def _in_place_ok(self, src_id: str) -> bool:
        """In-place (whole-content) consumption: safe only on a fluid's
        last use with no excess held back.  Callers restrict it to *unary*
        consumers, where taking the producer's full content instead of the
        metered planned volume cannot perturb a mix ratio and cannot
        overflow a same-capacity unit."""
        node = self.dag.node(src_id)
        return (
            self.pending_uses.get(src_id, 0) == 1
            and node.excess_fraction == 0
        )

    def _free_unit(
        self,
        candidates: list[str],
        needed_sources: list[str],
        *,
        allow_in_place: bool = False,
    ) -> str:
        """Pick a unit: an empty one, else one whose occupant is spent.

        For *mixes*, a unit holding one of the sources is never chosen:
        rounded plans can leave the producer's actual content a least-count
        step away from the planned draw, so mix ingredients are always
        metered moves into a different unit, with residue explicitly
        discarded once the source is spent (see :meth:`_consume_from`).
        Unary consumers pass ``allow_in_place`` and may keep the fluid in
        its unit.
        """
        if allow_in_place:
            for unit in candidates:
                occupant = self.occupant.get(unit)
                if (
                    occupant is not None
                    and occupant in needed_sources
                    and self._in_place_ok(occupant)
                ):
                    return unit
        for unit in candidates:
            if self.occupant.get(unit) is None:
                return unit
        for unit in candidates:
            occupant = self.occupant.get(unit)
            if occupant is not None and self.pending_uses.get(occupant, 0) == 0:
                self._emit(
                    ais.output(
                        self._at(self.waste_port),
                        self._at(unit),
                        comment=f"discard spent {occupant}",
                        meta={"discard": occupant},
                    )
                )
                self._evict(unit)
                return unit
        raise CodegenError(
            f"no free unit among {candidates}; live fluids occupy all of "
            "them (reservoir allocation should have parked one)"
        )

    def _clear_outlet(self, unit: str) -> None:
        """Evacuate a separator outlet before a new run flushes it.

        The flow-cell model discards whatever sits in ``out1`` when the
        next separation starts, so an unparked occupant must leave first:
        a terminal product is delivered off-chip (it *is* the assay's
        output), a spent intermediate is discarded, and a fluid with
        remaining uses means reservoir allocation failed to park it —
        clobbering it would silently corrupt downstream mixes.
        """
        outlet = f"{unit}.out1"
        occupant = self.occupant.get(outlet)
        if occupant is None:
            return
        if self.pending_uses.get(occupant, 0) > 0:
            raise CodegenError(
                f"separator {unit!r} reused while {occupant!r} (still "
                f"needed {self.pending_uses[occupant]} more time(s)) sits "
                "unparked in its outlet"
            )
        if self._use_count(occupant) == 0:
            port = self.spec.output_port_names()[0]
            comment = f"deliver {occupant} before reuse"
            meta = {"node": occupant}
        else:
            port = self.waste_port
            comment = f"discard spent {occupant}"
            meta = {"discard": occupant}
        self._emit(
            ais.output(
                self._at(port), self._at(outlet), comment=comment, meta=meta
            )
        )
        self._evict(outlet)
        if self.location.get(occupant) == outlet:
            del self.location[occupant]

    def _evict(self, unit: str) -> None:
        occupant = self.occupant.pop(unit, None)
        if occupant is not None and self.location.get(occupant) == unit:
            del self.location[occupant]

    def _settle(self, node: Node, unit: str) -> None:
        """Place a freshly-produced fluid: park it or leave it in the unit."""
        self.pending_uses[node.id] = self._use_count(node.id)
        reservoir = self.allocation.reservoir_of.get(node.id)
        if reservoir is not None:
            self._emit(
                ais.move(
                    self._at(reservoir),
                    self._at(unit),
                    comment=f"park {node.display_name}",
                    meta={"park": node.id},
                )
            )
            self.location[node.id] = reservoir
            self.occupant[unit] = None
        else:
            self.location[node.id] = unit
            self.occupant[unit] = node.id

    def _consume_from(self, src_id: str, unit: str) -> None:
        """Bookkeeping after moving (part of) ``src_id`` into ``unit``."""
        self.pending_uses[src_id] = self.pending_uses.get(src_id, 1) - 1
        source_location = self.location.get(src_id)
        if (
            source_location is not None
            and self.occupant.get(source_location) == src_id
            and self.pending_uses[src_id] <= 0
        ):
            # Fully consumed out of a functional unit.  Whatever remains —
            # a cascade stage's planned excess, or the sub-least-count
            # residue a rounded plan can leave behind — is flushed so the
            # unit is genuinely empty for its next occupant.
            src_node = self.dag.node(src_id)
            label = (
                "excess" if src_node.excess_fraction > 0 else "residue"
            )
            self._emit(
                ais.output(
                    self._at(self.waste_port),
                    self._at(source_location),
                    comment=f"discard {label} of {src_id}",
                    meta={"excess" if label == "excess" else "residue": src_id},
                )
            )
            self._evict(source_location)

    # ------------------------------------------------------------------
    # node production
    # ------------------------------------------------------------------
    def produce(self, node: Node) -> None:
        kind = node.kind
        first_instruction = len(self.program)
        if kind is NodeKind.MIX:
            self.produce_mix(node)
        elif kind is NodeKind.HEAT:
            self.produce_heat(node)
        elif kind is NodeKind.SEPARATE:
            self.produce_separate(node)
        elif kind is NodeKind.SENSE:
            self.produce_heat(node)  # treated as a unary pass-through
        else:
            raise CodegenError(f"cannot generate code for node kind {kind}")
        guard = node.meta.get("guard")
        if guard is not None:
            # Conservatively-included branch (dynamic IF, Section 3.5): the
            # executor skips these instructions when the branch is untaken.
            for instruction in self.program.instructions[first_instruction:]:
                instruction.meta.setdefault("guard", guard)
        self.post_production(node)

    def _ratio_parts(self, node: Node, inbound: list[Edge]) -> list[Fraction]:
        if node.ratio is not None and len(node.ratio) == len(inbound):
            return [Fraction(part) for part in node.ratio]
        # Transformed nodes: print the normalised fractions scaled to the
        # smallest part = 1.
        smallest = min(edge.fraction for edge in inbound)
        return [edge.fraction / smallest for edge in inbound]

    def produce_mix(self, node: Node) -> None:
        inbound = [e for e in self.dag.in_edges(node.id) if not e.is_excess]
        sources = [edge.src for edge in inbound]
        unit = self._free_unit(self.mixers, sources)
        parts = self._ratio_parts(node, inbound)
        for edge, part in zip(inbound, parts):
            src_location = self.location.get(edge.src)
            if src_location is None:
                raise CodegenError(
                    f"source {edge.src!r} of {node.id!r} has no location"
                )
            if src_location == unit:
                raise CodegenError(
                    f"source {edge.src!r} occupies the chosen unit {unit!r}; "
                    "the unit picker must never select it"
                )
            self._emit(
                ais.move(
                    self._at(unit),
                    self._at(src_location),
                    part,
                    edge=edge.key,
                    meta={"dst_node": node.id},
                )
            )
            self._consume_from(edge.src, unit)
        duration = node.meta.get("duration", 10)
        self._emit(ais.mix(self._at(unit), duration, meta={"node": node.id}))
        self._settle(node, unit)

    def produce_heat(self, node: Node) -> None:
        (edge,) = [e for e in self.dag.in_edges(node.id) if not e.is_excess]
        src_location = self.location.get(edge.src)
        if src_location is None:
            raise CodegenError(f"source {edge.src!r} has no location")
        unit = self._free_unit(self.heaters, [edge.src], allow_in_place=True)
        if src_location == unit and self.occupant.get(unit) == edge.src:
            # unary in-place: the whole content is the single ingredient
            self.occupant[unit] = None
            self.pending_uses[edge.src] -= 1
            self.location.pop(edge.src, None)
        else:
            self._emit(
                ais.move(
                    self._at(unit),
                    self._at(src_location),
                    edge=edge.key,
                    meta={"dst_node": node.id},
                )
            )
            self._consume_from(edge.src, unit)
        temperature = node.meta.get("temperature", 37)
        duration = node.meta.get("duration", 30)
        if node.meta.get("op") == "concentrate":
            keep = node.output_fraction or Fraction(1, 2)
            self._emit(
                ais.concentrate(
                    self._at(unit),
                    temperature,
                    duration,
                    meta={"node": node.id, "keep_fraction": keep},
                )
            )
        else:
            self._emit(
                ais.incubate(
                    self._at(unit), temperature, duration, meta={"node": node.id}
                )
            )
        self._settle(node, unit)

    def produce_separate(self, node: Node) -> None:
        mode = node.meta.get("mode", "AF")
        unit_spec = self.spec.separator_for_mode(mode)
        unit = unit_spec.name
        (edge,) = [e for e in self.dag.in_edges(node.id) if not e.is_excess]
        # A feed that is this unit's own unparked effluent moves into the
        # chamber before the outlet is cleared, which would flush it.
        feed_first = self.occupant.get(f"{unit}.out1") == edge.src
        if feed_first:
            self._load_feed(unit, edge, node)
        self._clear_outlet(unit)
        matrix = node.meta.get("matrix")
        pusher = node.meta.get("pusher")
        for aux, well in ((matrix, "matrix"), (pusher, "pusher")):
            if aux is None:
                continue
            if aux not in self.allocation.aux:
                raise CodegenError(
                    f"separator fluid {aux!r} was not allocated a reservoir"
                )
            reservoir, port = self.allocation.aux[aux]
            if not self._aux_loaded.get(aux, False):
                self._emit(
                    ais.input_(
                        self._at(reservoir),
                        self._at(port),
                        abs_volume=self.aux_volume,
                        comment=f"refill {aux}",
                        meta={"aux": aux},
                    )
                )
            self._emit(
                ais.move(
                    self._at(f"{unit}.{well}"),
                    self._at(reservoir),
                    comment=aux,
                    meta={"aux": aux, "well": well},
                )
            )
            self._aux_loaded[aux] = False  # consumed; next use must refill
        if not feed_first:
            self._load_feed(unit, edge, node)
        duration = node.meta.get("duration", 30)
        separate_meta = {"node": node.id}
        if not node.unknown_volume and node.output_fraction is not None:
            # carry the YIELD hint so a simulator without an explicit
            # separation model can honour it (the plan assumed it)
            separate_meta["yield_fraction"] = node.output_fraction
        self._emit(
            ais.separate(self._at(unit), mode, duration, meta=separate_meta)
        )
        # The effluent sits in out1; treat out1 as the product's unit.
        outlet = f"{unit}.out1"
        self.pending_uses[node.id] = self._use_count(node.id)
        reservoir = self.allocation.reservoir_of.get(node.id)
        if reservoir is not None:
            self._emit(
                ais.move(
                    self._at(reservoir),
                    self._at(outlet),
                    comment=f"park {node.display_name}",
                    meta={"park": node.id},
                )
            )
            self.location[node.id] = reservoir
        else:
            self.location[node.id] = outlet
            self.occupant[outlet] = node.id

    def _load_feed(self, unit: str, edge: Edge, node: Node) -> None:
        """Move a separation's source into the separator chamber."""
        src_location = self.location.get(edge.src)
        if src_location is None:
            raise CodegenError(f"source {edge.src!r} has no location")
        self._emit(
            ais.move(
                self._at(unit),
                self._at(src_location),
                edge=edge.key,
                meta={"dst_node": node.id},
            )
        )
        self._consume_from(edge.src, unit)

    # ------------------------------------------------------------------
    def post_production(self, node: Node) -> None:
        """Emit senses and off-chip outputs attached to a node."""
        senses = node.meta.get("senses", [])
        outputs = node.meta.get("outputs", [])
        if not senses and not outputs:
            return
        for request in senses:
            sensor_spec = self.spec.sensor_for_mode(request["mode"])
            location = self.location.get(node.id)
            if location is None:
                raise CodegenError(f"sensed fluid {node.id!r} has no location")
            if location != sensor_spec.name:
                move_meta = {"sense_of": node.id}
                if request.get("guard") is not None:
                    move_meta["guard"] = request["guard"]
                self._emit(
                    ais.move(
                        self._at(sensor_spec.name),
                        self._at(location),
                        edge=None,
                        meta=move_meta,
                    )
                )
                if self.occupant.get(location) == node.id:
                    self._evict(location)
                self.location[node.id] = sensor_spec.name
                self.occupant[sensor_spec.name] = node.id
            self._emit(
                ais.sense(
                    self._at(sensor_spec.name),
                    request["mode"],
                    request["result"],
                    meta={"node": node.id, "guard": request.get("guard")},
                )
            )
        for _request in outputs:
            location = self.location.get(node.id)
            if location is None:
                raise CodegenError(f"output fluid {node.id!r} has no location")
            port = self.spec.output_port_names()[0]
            self._emit(
                ais.output(self._at(port), self._at(location), meta={"node": node.id})
            )
            if self.occupant.get(location) == node.id:
                self._evict(location)
            self.location.pop(node.id, None)


def generate(
    dag: AssayDAG,
    spec: MachineSpec = AQUACORE_SPEC,
    *,
    name: str | None = None,
    aux_fluids: Sequence[str] = (),
    aux_volume: Fraction = AUX_LOAD_VOLUME,
    storage_less: bool = True,
) -> tuple[AISProgram, ReservoirAssignment]:
    """Generate an AIS program for a volume DAG.

    Returns the program and the reservoir assignment it assumes.

    Raises:
        AllocationError: the assay exceeds the machine's reservoirs/ports.
        CodegenError: instruction selection failed.
    """
    generator = _Generator(
        dag,
        spec,
        name=name,
        aux_fluids=aux_fluids,
        aux_volume=aux_volume,
        storage_less=storage_less,
    )
    program = generator.run()
    program.input_ports = {
        node_id: generator.allocation.port_of[node_id]
        for node_id in generator.allocation.port_of
    }
    program.meta["allocation_peak"] = generator.allocation.peak_usage
    return program, generator.allocation
