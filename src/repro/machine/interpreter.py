"""The AIS interpreter: AquaCore's dry control driving the wet datapath.

:class:`Machine` instantiates the components of a :class:`MachineSpec`,
binds input ports to fluid species, and executes AIS instructions one at a
time.  Volumes for metered moves come from a *resolver* — the bridge to the
volume-management plan: the runtime passes a function mapping an
instruction (via its DAG-edge provenance) to the planned absolute volume.

Execution-model details that matter for volume management:

* every metered transfer goes through the :class:`MeteringPump` and is
  subject to the least count;
* a ``move`` with no volume drains its source completely (the AIS
  "implicit volume" behaviour);
* sensors are flow cells: depositing into an occupied sensor flushes the
  previous sample to waste;
* a separator flushes its outlet wells when a new separation starts, and
  reports the effluent volume as a run-time *measurement* — the quantity
  Section 3.5's constrained inputs wait for.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, cast
from collections.abc import Callable, Iterable, Sequence

from ..core.exact import RunningSum
from ..core.limits import HardwareLimits, Number, as_fraction
from ..ir.instructions import Instruction, Opcode, Operand
from ..ir.program import AISProgram
from .components import Container, Heater, Mixer, Reservoir, Sensor, Separator
from .errors import (
    ComponentError,
    EmptyError,
    MachineError,
    TransportError,
    UnknownOperandError,
)
from .faults import FaultInjector
from .fluids import Mixture
from .metering import MeteringPump
from .separation import SeparationModel
from .spec import AQUACORE_SPEC, MachineSpec
from .trace import EventHead, ExecutionTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .topology import ChannelTopology

__all__ = ["Machine", "PortBinding", "VolumeResolver"]

#: maps an instruction to its planned absolute volume (None = drain all).
VolumeResolver = Callable[[Instruction], Fraction | None]

_ZERO = Fraction(0)
#: wet transfers: their simulated time is per channel hop.
_TRANSFERS = (Opcode.INPUT, Opcode.OUTPUT, Opcode.MOVE, Opcode.MOVE_ABS)


@dataclass
class PortBinding:
    """An input port: which species it supplies and how much is on hand.

    ``supply=None`` models an effectively unlimited off-chip source; a
    finite supply lets tests exercise genuine exhaustion.
    """

    species: str
    supply: Fraction | None = None
    drawn: Fraction = Fraction(0)

    def draw(self, volume: Fraction, port: str) -> Mixture:
        if self.supply is not None and self.drawn + volume > self.supply:
            raise EmptyError(
                f"input port {port}: drawing {float(volume):.6g} nl exceeds "
                f"remaining supply "
                f"{float(self.supply - self.drawn):.6g} nl",
                component=port,
                requested=volume,
                available=self.supply - self.drawn,
            )
        self.drawn += volume
        return Mixture.pure(self.species, volume)


class Machine:
    """One PLoC instance: components + pump + trace + dry register file."""

    def __init__(
        self,
        spec: MachineSpec = AQUACORE_SPEC,
        *,
        separation_models: dict[str, SeparationModel] | None = None,
        strict_metering: bool = False,
        topology: "ChannelTopology" | None = None,
        injector: FaultInjector | None = None,
    ) -> None:
        self.spec = spec
        #: optional channel graph; when set, transfers are route-checked
        #: and their simulated time scales with the hop count.
        self.topology = topology
        self.limits: HardwareLimits = spec.limits
        self.pump = MeteringPump(spec.limits, strict=strict_metering)
        self.trace = ExecutionTrace()
        #: optional deterministic fault source (see repro.machine.faults).
        self.injector: FaultInjector | None = None
        self.results: dict[str, Fraction] = {}
        self.registers: dict[str, int] = {}
        self.ports: dict[str, PortBinding] = {}
        self._input_drawn = RunningSum()
        self.output_tally: dict[str, Fraction] = {}
        #: what was actually shipped per output port (full mixtures, so
        #: tests can compare final product concentration vectors).
        self.output_mixtures: dict[str, Mixture] = {}
        #: fluid discarded by flushes (sensor cells, separator outlets).
        self.waste_tally: Fraction = Fraction(0)
        self._components: dict[str, Container] = {}
        #: id(instruction) -> (instruction, its trace EventHead), decoded
        #: on first execution; holding the instruction keeps its id unique.
        self._heads: dict[int, tuple[Instruction, EventHead]] = {}
        capacity = spec.limits.max_capacity
        for name in spec.reservoir_names():
            self._components[name] = Reservoir(name, capacity)
        models = separation_models or {}
        #: units whose separation model was explicitly chosen by the user;
        #: YIELD hints never override these.
        self._user_separation_models = frozenset(models)
        for unit in spec.functional_units:
            unit_capacity = spec.capacity_of(unit)
            if unit.kind == "mixer":
                component: Container = Mixer(unit.name, unit_capacity)
            elif unit.kind == "heater":
                component = Heater(unit.name, unit_capacity)
            elif unit.kind == "separator":
                component = Separator(
                    unit.name,
                    unit_capacity,
                    modes=unit.modes,
                    model=models.get(unit.name),
                )
            else:
                component = Sensor(
                    unit.name,
                    unit_capacity,
                    senses=unit.senses,
                    coefficients=dict(spec.extinction_coefficients),
                )
            self._components[unit.name] = component
        if injector is not None:
            self.install_injector(injector)

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def install_injector(self, injector: FaultInjector) -> None:
        """Attach a deterministic fault source to this machine.

        The injector is shared with the metering pump (drift faults) and
        records every fired fault into this machine's trace.
        """
        self.injector = injector
        self.pump.injector = injector
        injector.install(self.trace, self.limits.least_count)

    def bind_port(
        self, port: str, species: str, supply: Number | None = None
    ) -> None:
        if port not in self.spec.input_port_names():
            raise UnknownOperandError(f"no input port {port!r}")
        self.ports[port] = PortBinding(
            species, None if supply is None else as_fraction(supply)
        )

    @property
    def input_drawn(self) -> Fraction:
        """Fluid drawn from every input port so far (nl), kept as a
        running total."""
        return self._input_drawn.value

    def bind_ports(self, bindings: dict[str, str]) -> None:
        """Bind several ports at once (fluid-species by port id)."""
        for port, species in bindings.items():
            self.bind_port(port, species)

    # ------------------------------------------------------------------
    # component access
    # ------------------------------------------------------------------
    def component(self, operand: str | Operand) -> Container:
        if isinstance(operand, str):
            operand = Operand.parse(operand)
        base = self._components.get(operand.base)
        if base is None:
            raise UnknownOperandError(
                f"no component {operand.base!r} on machine {self.spec.name!r}"
            )
        if operand.sub is None:
            return base
        if not isinstance(base, Separator):
            raise UnknownOperandError(
                f"{operand.base!r} has no sub-port {operand.sub!r}"
            )
        return base.sub(operand.sub)

    def reservoirs(self) -> dict[str, Reservoir]:
        return {
            name: comp
            for name, comp in self._components.items()
            if isinstance(comp, Reservoir)
        }

    def total_onchip_volume(self) -> Fraction:
        return sum(
            (comp.volume for comp in self._components.values()),
            Fraction(0),
        ) + sum(
            (
                sub.volume
                for comp in self._components.values()
                if isinstance(comp, Separator)
                for sub in (comp.matrix, comp.pusher, comp.out1, comp.out2)
            ),
            Fraction(0),
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        program: AISProgram,
        *,
        resolver: VolumeResolver | None = None,
    ) -> ExecutionTrace:
        """Execute a whole program; returns the accumulated trace."""
        for index, instruction in enumerate(program):
            self.execute(instruction, resolver=resolver, index=index)
        return self.trace

    def execute(
        self,
        instruction: Instruction,
        *,
        resolver: VolumeResolver | None = None,
        index: int = -1,
    ) -> Fraction | None:
        """Execute one instruction; returns its measurement, if any."""
        if self.injector is not None:
            self.injector.begin(index)
        return _HANDLERS[instruction.opcode](self, instruction, resolver, index)

    # ------------------------------------------------------------------
    def _resolve_volume(
        self,
        instruction: Instruction,
        resolver: VolumeResolver | None,
    ) -> Fraction | None:
        if instruction.abs_volume is not None:
            return instruction.abs_volume
        if resolver is not None:
            resolved = resolver(instruction)
            if resolved is not None:
                return as_fraction(resolved)
        return None

    def _check_route(self, src: object, dst: object) -> int:
        """Hop count of a transfer; 1 when no topology is installed.

        Raises :class:`ComponentError` for physically unroutable moves.
        """
        if self.topology is None:
            return 1
        return self.topology.hops(str(src), str(dst))

    def _wet_seconds(self, instruction: Instruction) -> Fraction:
        """Simulated fluid-path time for one instruction."""
        op = instruction.opcode
        if op in _TRANSFERS:
            if self.topology is None:
                return self.spec.transfer_seconds
            hops = self.topology.hops(str(instruction.src), str(instruction.dst))
            return self.spec.transfer_seconds * hops
        if op is Opcode.SENSE:
            return self.spec.sense_seconds
        if not op.is_wet:
            return _ZERO
        # mix / incubate / concentrate / separate carry their own duration
        return instruction.duration or _ZERO

    def _head(self, instruction: Instruction) -> EventHead:
        """The opcode, text, wet seconds and wet flag of ``instruction``,
        decoded on its first execution on this machine."""
        entry = self._heads.get(id(instruction))
        if entry is None:
            head = EventHead(
                instruction.opcode.value,
                instruction.render(),
                self._wet_seconds(instruction),
                instruction.is_wet,
            )
            entry = self._heads[id(instruction)] = (instruction, head)
        return entry[1]

    def _record(
        self,
        instruction: Instruction,
        index: int,
        *,
        volume: Fraction | None = None,
        measurement: Fraction | None = None,
        note: str = "",
    ) -> None:
        self.trace.record_instruction(
            index, self._head(instruction), volume, measurement, note
        )

    # -- fault hooks ------------------------------------------------------
    def _fault_transport(self, instruction: Instruction) -> None:
        """Raise :class:`TransportError` when a transient valve/transport
        fault blocks this transfer attempt (no fluid has moved yet)."""
        if self.injector is None:
            return
        location = str(instruction.src)
        if self.injector.transport_blocked(location):
            raise TransportError(
                f"transient transport failure moving {instruction.src} "
                f"-> {instruction.dst}",
                component=location,
            )

    def _fault_depletion(self, src: Container) -> None:
        """Spill the source's contents when a depletion fault fires; the
        subsequent draw then underflows and triggers regeneration."""
        if self.injector is None:
            return
        if self.injector.depleted(src.name):
            lost = src.discard()
            if lost > 0:
                self.waste_tally += lost
                self.injector.record_depletion(src.name, lost)

    # -- wet handlers ---------------------------------------------------
    def _exec_input(
        self,
        instruction: Instruction,
        resolver: VolumeResolver | None,
        index: int,
    ) -> Fraction | None:
        assert instruction.src is not None and instruction.dst is not None
        self._check_route(instruction.src, instruction.dst)
        port = instruction.src.base
        binding = self.ports.get(port)
        if binding is None:
            raise UnknownOperandError(
                f"input port {port!r} is not bound to a fluid"
            )
        self._fault_transport(instruction)
        volume = self._resolve_volume(instruction, resolver)
        dst = self.component(instruction.dst)
        if volume is None:
            volume = dst.free  # fill the reservoir
        # A refill (regeneration re-executing an input) tops the reservoir
        # up; it can never exceed the free space.
        volume = min(volume, dst.free)
        if volume < self.limits.least_count:
            self._record(instruction, index, volume=Fraction(0), note="already full")
            return None
        metered = self.pump.meter(volume, headroom=dst.free)
        dst.deposit(binding.draw(metered, port))
        self._input_drawn.add(metered)
        self.pump.record(metered)
        self._record(instruction, index, volume=metered)
        return None

    def _exec_output(
        self,
        instruction: Instruction,
        resolver: VolumeResolver | None,
        index: int,
    ) -> Fraction | None:
        assert instruction.src is not None and instruction.dst is not None
        self._check_route(instruction.src, instruction.dst)
        src = self.component(instruction.src)
        self._fault_transport(instruction)
        removed = src.drain()
        port = str(instruction.dst)
        self.output_tally[port] = (
            self.output_tally.get(port, Fraction(0)) + removed.volume
        )
        if not removed.is_empty:
            merged = self.output_mixtures.get(port, Mixture.empty())
            self.output_mixtures[port] = merged.merge(removed)
        self._record(instruction, index, volume=removed.volume)
        return None

    def _exec_move(
        self,
        instruction: Instruction,
        resolver: VolumeResolver | None,
        index: int,
    ) -> Fraction | None:
        assert instruction.src is not None and instruction.dst is not None
        self._check_route(instruction.src, instruction.dst)
        src = self.component(instruction.src)
        dst = self.component(instruction.dst)
        self._fault_transport(instruction)
        self._fault_depletion(src)
        volume = self._resolve_volume(instruction, resolver)
        note = ""
        if volume is None:
            moved = src.drain()
            if moved.is_empty:
                raise EmptyError(
                    f"move from empty {instruction.src}",
                    component=str(instruction.src),
                    requested=None,
                    available=Fraction(0),
                )
        else:
            # upward metering drift is capped by the destination's free
            # space (a flushed-on-deposit sensor frees its whole cell).
            headroom = dst.capacity if isinstance(dst, Sensor) else dst.free
            metered = self.pump.meter(volume, headroom=headroom)
            if self.injector is not None:
                metered = self.injector.dispense_shortfall(metered)
            moved = src.draw(metered)
        if isinstance(dst, Sensor) and not dst.is_empty:
            flushed = dst.discard()
            self.waste_tally += flushed
            note = f"flushed {float(flushed):.4g} nl from {dst.name}"
        dst.deposit(moved)
        self.pump.record(moved.volume)
        self._record(instruction, index, volume=moved.volume, note=note)
        return None

    def _exec_mix(
        self,
        instruction: Instruction,
        resolver: VolumeResolver | None,
        index: int,
    ) -> Fraction | None:
        assert instruction.dst is not None and instruction.duration is not None
        unit = self.component(instruction.dst)
        if not isinstance(unit, Mixer):
            raise ComponentError(f"{instruction.dst} is not a mixer")
        unit.mix(instruction.duration)
        self._record(instruction, index, volume=unit.volume)
        return None

    def _exec_heat(
        self,
        instruction: Instruction,
        resolver: VolumeResolver | None,
        index: int,
    ) -> Fraction | None:
        assert instruction.dst is not None
        assert instruction.temperature is not None
        assert instruction.duration is not None
        unit = self.component(instruction.dst)
        if not isinstance(unit, Heater):
            raise ComponentError(f"{instruction.dst} is not a heater")
        if instruction.opcode is Opcode.CONCENTRATE:
            keep = as_fraction(
                cast(Number, instruction.meta.get("keep_fraction", Fraction(1, 2)))
            )
            lost = unit.concentrate(
                instruction.temperature, instruction.duration, keep
            )
            self._record(
                instruction, index, volume=unit.volume,
                note=f"evaporated {float(lost):.4g} nl",
            )
        else:
            unit.incubate(instruction.temperature, instruction.duration)
            self._record(instruction, index, volume=unit.volume)
        return None

    def _exec_separate(
        self,
        instruction: Instruction,
        resolver: VolumeResolver | None,
        index: int,
    ) -> Fraction | None:
        assert instruction.dst is not None
        assert instruction.mode is not None and instruction.duration is not None
        unit = self.component(instruction.dst)
        if not isinstance(unit, Separator):
            raise ComponentError(f"{instruction.dst} is not a separator")
        # Outlets are flushed when a new run starts (flow-cell model).
        self.waste_tally += unit.out1.discard()
        self.waste_tally += unit.out2.discard()
        consumables = unit.matrix.volume + unit.pusher.volume
        hint = instruction.meta.get("yield_fraction")
        saved_model = None
        if hint is not None and unit.name not in self._user_separation_models:
            # the compiled plan assumed the YIELD hint; with no explicit
            # chemistry installed, the simulation honours it
            from .separation import FractionalYield

            saved_model = unit.model
            unit.model = FractionalYield(as_fraction(cast(Number, hint)))
        try:
            effluent, waste = unit.separate(
                instruction.mode, instruction.duration
            )
        finally:
            if saved_model is not None:
                unit.model = saved_model
        # matrix and pusher are spent by the run (see Separator.separate)
        self.waste_tally += consumables - unit.matrix.volume - unit.pusher.volume
        self._record(
            instruction,
            index,
            volume=effluent + waste,
            measurement=effluent,
            note=f"effluent {float(effluent):.4g} nl, waste {float(waste):.4g} nl",
        )
        return effluent

    def _exec_sense(
        self,
        instruction: Instruction,
        resolver: VolumeResolver | None,
        index: int,
    ) -> Fraction | None:
        assert instruction.dst is not None
        assert instruction.mode is not None and instruction.result is not None
        unit = self.component(instruction.dst)
        if not isinstance(unit, Sensor):
            raise ComponentError(f"{instruction.dst} is not a sensor")
        reading = unit.read(instruction.mode)
        if self.injector is not None:
            reading = self.injector.misread(reading, unit.name)
        self.results[instruction.result] = reading
        self._record(instruction, index, measurement=reading)
        return reading

    # -- dry handler ------------------------------------------------------
    def _exec_dry(
        self,
        instruction: Instruction,
        resolver: VolumeResolver | None,
        index: int,
    ) -> Fraction | None:
        value = instruction.value
        assert value is not None and instruction.reg is not None
        operand = (
            self.registers.get(str(value), 0)
            if isinstance(value, str)
            else int(value)
        )
        register = instruction.reg
        current = self.registers.get(register, 0)
        if instruction.opcode is Opcode.DRY_MOV:
            self.registers[register] = operand
        elif instruction.opcode is Opcode.DRY_ADD:
            self.registers[register] = current + operand
        elif instruction.opcode is Opcode.DRY_SUB:
            self.registers[register] = current - operand
        else:
            self.registers[register] = current * operand
        self._record(instruction, index)
        return None


#: opcode -> handler, as plain functions called with the machine first.
#: Bound methods kept on a machine would form a machine -> table ->
#: method -> machine cycle that only the cyclic collector frees.
_HANDLERS: dict[
    Opcode,
    Callable[[Machine, Instruction, VolumeResolver | None, int], Fraction | None],
] = {
    Opcode.INPUT: Machine._exec_input,
    Opcode.OUTPUT: Machine._exec_output,
    Opcode.MOVE: Machine._exec_move,
    Opcode.MOVE_ABS: Machine._exec_move,
    Opcode.MIX: Machine._exec_mix,
    Opcode.INCUBATE: Machine._exec_heat,
    Opcode.CONCENTRATE: Machine._exec_heat,
    Opcode.SEPARATE: Machine._exec_separate,
    Opcode.SENSE: Machine._exec_sense,
    Opcode.DRY_MOV: Machine._exec_dry,
    Opcode.DRY_ADD: Machine._exec_dry,
    Opcode.DRY_SUB: Machine._exec_dry,
    Opcode.DRY_MUL: Machine._exec_dry,
}
