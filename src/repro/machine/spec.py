"""Machine description: the dry half of AquaCore's configuration.

A :class:`MachineSpec` lists the wet components (reservoirs, functional
units, ports) with their capacities, the global hardware limits, and the
sensing coefficients the optical-density model uses.  ``AQUACORE_SPEC``
mirrors the organisation of paper Figure 1 and the unit names used in the
compiled code of Figures 9-11 (``mixer1``, ``heater1``, ``separator1``,
``separator2``, ``sensor2``, reservoirs ``s1..sN``, input ports
``ip1..ipN``, output ports ``op1..opN``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from collections.abc import Mapping

from ..core.limits import PAPER_LIMITS, HardwareLimits, Number, as_fraction

__all__ = [
    "FunctionalUnitSpec",
    "MachineSpec",
    "AQUACORE_SPEC",
    "AQUACORE_XL_SPEC",
    "MACHINES",
]

#: Functional unit kinds the interpreter understands.
FU_KINDS = ("mixer", "heater", "separator", "sensor")


@dataclass(frozen=True)
class FunctionalUnitSpec:
    """One functional unit: kind, capacity, optional minimum load.

    ``min_volume`` feeds the extra class-1 constraints of the LP model
    (e.g. a separator that cannot operate below some loadable volume).
    """

    name: str
    kind: str
    capacity: Fraction | None = None  # None: machine default
    min_volume: Fraction | None = None
    #: for separators: which AIS flavours this unit implements (CE/SIZE/AF/LC)
    modes: tuple[str, ...] = ()
    #: for sensors: which AIS flavours (OD/FL)
    senses: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in FU_KINDS:
            raise ValueError(f"unknown functional unit kind {self.kind!r}")
        if self.capacity is not None:
            object.__setattr__(self, "capacity", as_fraction(self.capacity))
        if self.min_volume is not None:
            object.__setattr__(self, "min_volume", as_fraction(self.min_volume))


@dataclass(frozen=True)
class MachineSpec:
    """Complete static description of one PLoC configuration."""

    name: str
    limits: HardwareLimits
    n_reservoirs: int
    n_input_ports: int
    n_output_ports: int
    functional_units: tuple[FunctionalUnitSpec, ...]
    #: species -> extinction coefficient for the optical-density model;
    #: unlisted species read as 0 (optically transparent).
    extinction_coefficients: Mapping[str, Fraction] = field(
        default_factory=dict
    )
    #: simulated wall time of one fluid transfer (move/input/output).  The
    #: paper: "fluidic instructions take seconds to execute"; peristaltic
    #: transfers are the cheapest wet operation.
    transfer_seconds: Fraction = Fraction(1)
    #: simulated wall time of one sensor read.
    sense_seconds: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        if self.n_reservoirs < 1:
            raise ValueError("a machine needs at least one reservoir")
        names = [unit.name for unit in self.functional_units]
        if len(names) != len(set(names)):
            raise ValueError("duplicate functional unit names")
        # Lookup tables built once per spec.  They are plain attributes,
        # not fields, so equality, repr and fingerprints ignore them.  The
        # first claim on a name wins: reservoir, input port, output port,
        # then functional unit.
        units = {unit.name: unit for unit in self.functional_units}
        kinds: dict[str, str] = {}
        for kind, claimed in (
            ("reservoir", self.reservoir_names()),
            ("input-port", self.input_port_names()),
            ("output-port", self.output_port_names()),
        ):
            for name in claimed:
                kinds.setdefault(name, kind)
        for unit in self.functional_units:
            kinds.setdefault(unit.name, unit.kind)
        object.__setattr__(self, "_unit_of", units)
        object.__setattr__(self, "_kind_of", kinds)

    # ------------------------------------------------------------------
    def reservoir_names(self) -> tuple[str, ...]:
        return tuple(f"s{i}" for i in range(1, self.n_reservoirs + 1))

    def input_port_names(self) -> tuple[str, ...]:
        return tuple(f"ip{i}" for i in range(1, self.n_input_ports + 1))

    def output_port_names(self) -> tuple[str, ...]:
        return tuple(f"op{i}" for i in range(1, self.n_output_ports + 1))

    def unit(self, name: str) -> FunctionalUnitSpec:
        try:
            return self._unit_of[name]
        except KeyError:
            raise KeyError(
                f"no functional unit {name!r} in machine {self.name!r}"
            ) from None

    def units_of_kind(self, kind: str) -> tuple[FunctionalUnitSpec, ...]:
        return tuple(u for u in self.functional_units if u.kind == kind)

    def separator_for_mode(self, mode: str) -> FunctionalUnitSpec:
        """The first separator implementing an AIS mode (CE/SIZE/AF/LC)."""
        for unit in self.units_of_kind("separator"):
            if mode in unit.modes:
                return unit
        raise KeyError(f"no separator supports mode {mode!r}")

    def sensor_for_mode(self, mode: str) -> FunctionalUnitSpec:
        for unit in self.units_of_kind("sensor"):
            if mode in unit.senses:
                return unit
        raise KeyError(f"no sensor supports mode {mode!r}")

    def capacity_of(self, unit: FunctionalUnitSpec) -> Fraction:
        return unit.capacity or self.limits.max_capacity

    # ------------------------------------------------------------------
    def component_kind(self, name: str) -> str | None:
        """Classify an operand base name.

        Returns ``"reservoir"``, ``"input-port"``, ``"output-port"``, a
        functional-unit kind (``"mixer"``/``"heater"``/``"separator"``/
        ``"sensor"``), or ``None`` for a name that addresses nothing on
        this machine.
        """
        return self._kind_of.get(name)

    def location_capacity(self, name: str) -> Fraction | None:
        """Capacity of a fluid-holding location (sub-ports share their
        unit's capacity); ``None`` for ports and unknown names."""
        kind = self.component_kind(name)
        if kind == "reservoir":
            return self.limits.max_capacity
        if kind in FU_KINDS:
            return self.capacity_of(self.unit(name))
        return None

    def with_limits(self, limits: HardwareLimits) -> "MachineSpec":
        """A copy of the spec with different hardware limits."""
        return MachineSpec(
            name=self.name,
            limits=limits,
            n_reservoirs=self.n_reservoirs,
            n_input_ports=self.n_input_ports,
            n_output_ports=self.n_output_ports,
            functional_units=self.functional_units,
            extinction_coefficients=dict(self.extinction_coefficients),
        )


_DEFAULT_UNITS = (
    FunctionalUnitSpec("mixer1", "mixer"),
    FunctionalUnitSpec("mixer2", "mixer"),
    FunctionalUnitSpec("heater1", "heater"),
    FunctionalUnitSpec("separator1", "separator", modes=("AF", "SIZE")),
    FunctionalUnitSpec("separator2", "separator", modes=("LC", "CE")),
    FunctionalUnitSpec("sensor1", "sensor", senses=("FL",)),
    FunctionalUnitSpec("sensor2", "sensor", senses=("OD",)),
)

#: The default machine used throughout the evaluation: 100 nl / 100 pl
#: limits and the functional units named by the compiled code in paper
#: Figures 9-11.  The paper's enzyme assay keeps 12 dilutions live at once
#: in indexed reservoir banks (``s3(i)``, ``s5(j)``, ``s7(k)`` in Figure
#: 11(b)); we model the banks as a flat space of 24 reservoirs.
AQUACORE_SPEC = MachineSpec(
    name="aquacore",
    limits=PAPER_LIMITS,
    n_reservoirs=24,
    n_input_ports=16,
    n_output_ports=4,
    functional_units=_DEFAULT_UNITS,
)

#: A larger configuration for the EnzymeN scaling study (Table 2's
#: Enzyme10 keeps 30 dilutions live at once).
AQUACORE_XL_SPEC = MachineSpec(
    name="aquacore-xl",
    limits=PAPER_LIMITS,
    n_reservoirs=64,
    n_input_ports=48,
    n_output_ports=4,
    functional_units=_DEFAULT_UNITS,
)

#: Every machine a request may name (``--machine``, the wire ``machine``).
MACHINES: dict[str, MachineSpec] = {
    spec.name: spec for spec in (AQUACORE_SPEC, AQUACORE_XL_SPEC)
}
