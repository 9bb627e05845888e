"""Wet components: reservoirs and functional units as stateful containers.

Every component that can hold fluid derives from :class:`Container`, which
enforces its capacity on deposit and availability on draw.  Both checks,
and the free space, are decided on the mixture's integers
(:meth:`Mixture.fits_with`, :meth:`Mixture.holds`,
:meth:`Mixture.room_in`), so a check builds no Fraction unless its error
reports one.  Functional units add their operation
(:meth:`Mixer.mix`, :meth:`Heater.incubate`, :meth:`Separator.separate`,
:meth:`Sensor.read`) and the bookkeeping the trace records.

Separators are composite, matching the AIS operand space of the paper's
compiled code (``separator1.matrix``, ``separator1.pusher``,
``separator1.out1``): the matrix and pusher wells are loaded with plain
moves before ``separate.*`` fires, and the effluent/waste land in ``out1``
/ ``out2``.
"""

from __future__ import annotations

from fractions import Fraction

from ..core.exact import RunningSum
from ..core.limits import Number, as_fraction
from .errors import CapacityError, ComponentError, EmptyError
from .fluids import Mixture
from .separation import FractionalYield, SeparationModel

__all__ = ["Container", "Reservoir", "Mixer", "Heater", "Separator", "Sensor"]


class Container:
    """A capacity-limited vessel holding one mixture."""

    def __init__(self, name: str, capacity: Fraction) -> None:
        self.name = name
        self.capacity = as_fraction(capacity)
        self.contents = Mixture.empty()

    # ------------------------------------------------------------------
    @property
    def volume(self) -> Fraction:
        return self.contents.volume

    @property
    def free(self) -> Fraction:
        return self.contents.room_in(self.capacity)

    @property
    def is_empty(self) -> bool:
        return self.contents.is_empty

    def deposit(self, mixture: Mixture) -> None:
        """Add fluid; raises :class:`CapacityError` on overflow."""
        if mixture.is_empty:
            return
        if not self.contents.fits_with(mixture, self.capacity):
            raise CapacityError(
                f"{self.name}: depositing {float(mixture.volume):.6g} nl "
                f"into {float(self.volume):.6g}/{float(self.capacity):.6g} nl",
                component=self.name,
                requested=mixture.volume,
                capacity=self.capacity,
            )
        self.contents = self.contents.merge(mixture)

    def draw(self, volume: Number) -> Mixture:
        """Remove ``volume``; raises :class:`EmptyError` if unavailable."""
        requested = as_fraction(volume)
        if not self.contents.holds(requested):
            raise EmptyError(
                f"{self.name}: drawing {float(requested):.6g} nl but only "
                f"{float(self.volume):.6g} nl available",
                component=self.name,
                requested=requested,
                available=self.volume,
            )
        return self.contents.take(requested)

    def drain(self) -> Mixture:
        """Remove everything (used by storage-less operand forwarding)."""
        return self.contents.take_all()

    def discard(self) -> Fraction:
        """Empty the container to waste; returns the discarded volume."""
        discarded = self.volume
        self.contents = Mixture.empty()
        return discarded

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r}, {self.contents!r})"


class Reservoir(Container):
    """Plain storage (the PLoC's 'registers')."""


class Mixer(Container):
    """Mixing chamber.  Depositing already co-locates the fluids; ``mix``
    models the peristaltic homogenisation step and its duration."""

    def __init__(self, name: str, capacity: Fraction) -> None:
        super().__init__(name, capacity)
        self.mix_count = 0
        self._mix_time = RunningSum()

    def mix(self, duration: Number) -> None:
        if self.is_empty:
            raise ComponentError(f"{self.name}: mixing an empty chamber")
        time = as_fraction(duration)
        if time <= 0:
            raise ComponentError(f"{self.name}: mix duration must be positive")
        self.mix_count += 1
        self._mix_time.add(time)

    @property
    def total_mix_time(self) -> Fraction:
        return self._mix_time.value


class Heater(Container):
    """Incubation/concentration chamber.

    ``concentrate`` reduces volume by evaporating solvent — the output
    fraction mirrors the DAG's ``output_fraction`` for concentrate ops.
    """

    def __init__(self, name: str, capacity: Fraction) -> None:
        super().__init__(name, capacity)
        self.temperature: Fraction | None = None
        self.incubation_log: list[tuple[Fraction, Fraction]] = []

    def incubate(self, temperature: Number, duration: Number) -> None:
        if self.is_empty:
            raise ComponentError(f"{self.name}: incubating an empty chamber")
        temp = as_fraction(temperature)
        time = as_fraction(duration)
        self.temperature = temp
        self.incubation_log.append((temp, time))

    def concentrate(
        self, temperature: Number, duration: Number, keep_fraction: Number
    ) -> Fraction:
        """Evaporate down to ``keep_fraction`` of the volume; returns the
        volume lost."""
        self.incubate(temperature, duration)
        keep = as_fraction(keep_fraction)
        if not (0 < keep <= 1):
            raise ComponentError(
                f"{self.name}: keep fraction must be in (0, 1], got {keep}"
            )
        before = self.volume
        self.contents = self.contents.scaled(keep)
        return before - self.volume


class Separator(Container):
    """Composite separation unit with matrix/pusher wells and two outlets."""

    def __init__(
        self,
        name: str,
        capacity: Fraction,
        *,
        modes: tuple[str, ...] = (),
        model: SeparationModel | None = None,
    ) -> None:
        super().__init__(name, capacity)
        self.modes = modes
        self.model: SeparationModel = model or FractionalYield(Fraction(1, 2))
        self.matrix = Container(f"{name}.matrix", capacity)
        self.pusher = Container(f"{name}.pusher", capacity)
        self.out1 = Container(f"{name}.out1", capacity)
        self.out2 = Container(f"{name}.out2", capacity)
        self.separation_count = 0

    def sub(self, port: str) -> Container:
        try:
            return {
                "matrix": self.matrix,
                "pusher": self.pusher,
                "out1": self.out1,
                "out2": self.out2,
            }[port]
        except KeyError:
            raise ComponentError(
                f"{self.name}: no sub-port {port!r}"
            ) from None

    def separate(self, mode: str, duration: Number) -> tuple[Fraction, Fraction]:
        """Run the separation; effluent -> out1, waste -> out2.

        Returns (effluent volume, waste volume) — the effluent volume is
        the run-time measurement Section 3.5 needs.
        """
        if self.modes and mode not in self.modes:
            raise ComponentError(
                f"{self.name} does not implement separate.{mode}"
            )
        if self.is_empty:
            raise ComponentError(f"{self.name}: separating an empty chamber")
        as_fraction(duration)  # validates
        feed = self.contents.take_all()
        effluent, waste = self.model.separate(feed)
        if effluent.volume + waste.volume != feed.volume:
            raise ComponentError(
                f"{self.name}: separation model does not conserve volume"
            )
        self.out1.deposit(effluent)
        self.out2.deposit(waste)
        # The pusher buffer is consumed driving the separation, and the
        # matrix is spent with it (each run needs a fresh load — which is
        # why the compiler emits refill inputs before reuse).
        self.pusher.discard()
        self.matrix.discard()
        self.separation_count += 1
        return effluent.volume, waste.volume


class Sensor(Container):
    """Optical sensor: optical density or fluorescence reads.

    Reads are *non-destructive*: the fluid stays in the sensing cell and can
    be moved onward afterwards (AIS semantics).
    """

    def __init__(
        self,
        name: str,
        capacity: Fraction,
        *,
        senses: tuple[str, ...] = (),
        coefficients: dict[str, Fraction] | None = None,
    ) -> None:
        super().__init__(name, capacity)
        self.senses = senses
        self.coefficients = coefficients or {}
        self.readings: list[Fraction] = []

    def read(self, mode: str) -> Fraction:
        """Absorbance-additivity model: sum of concentration x coefficient."""
        if self.senses and mode not in self.senses:
            raise ComponentError(f"{self.name} does not implement sense.{mode}")
        if self.is_empty:
            raise ComponentError(f"{self.name}: sensing an empty cell")
        reading = Fraction(0)
        for species, coefficient in self.coefficients.items():
            reading += self.contents.concentration(species) * coefficient
        self.readings.append(reading)
        return reading
