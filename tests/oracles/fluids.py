"""Reference mixture: every component kept as its own Fraction.

This is the fluid model the interpreter ran on before it moved to one
integer vector over a per-mixture denominator: each operation works
component by component in :class:`fractions.Fraction` arithmetic.
:mod:`repro.machine.fluids` must give the same components, volumes,
amounts and concentrations, and raise the same errors with the same
messages; ``tests/machine/test_fluids.py`` checks that on random operation
sequences.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from fractions import Fraction

from repro.core.limits import Number, as_fraction

__all__ = ["Mixture"]

_ZERO = Fraction(0)


@dataclass
class Mixture:
    """A volume of (possibly mixed) fluid.

    Invariants: all component volumes are > 0 and their sum is
    :attr:`volume`.  The empty mixture has no components.  The total is
    kept exactly rather than re-summed on every read, so ``components``
    is only ever replaced by the methods here.
    """

    components: dict[str, Fraction] = field(default_factory=dict)
    _volume: Fraction = field(
        default=Fraction(0), init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        clean: dict[str, Fraction] = {}
        for species, volume in self.components.items():
            value = as_fraction(volume)
            if value < 0:
                raise ValueError(
                    f"negative volume {volume} for species {species!r}"
                )
            if value > 0:
                clean[species] = value
        self.components = clean
        self._volume = sum(clean.values(), _ZERO)

    @classmethod
    def _exact(
        cls, components: dict[str, Fraction], volume: Fraction
    ) -> "Mixture":
        """A mixture over ``components``, taken as they are.

        Trusted: every component is a strictly positive Fraction, they
        sum to ``volume`` exactly, and the caller hands the dict over.
        The methods below know all three, so they skip the public
        constructor's validation and re-summing.
        """
        mixture = cls.__new__(cls)
        mixture.components = components
        mixture._volume = volume
        return mixture

    # ------------------------------------------------------------------
    @classmethod
    def pure(cls, species: str, volume: Number) -> "Mixture":
        """A single-species mixture."""
        value = as_fraction(volume)
        if value < 0:
            raise ValueError(f"negative volume {value} for species {species!r}")
        if value == 0:
            return cls.empty()
        return cls._exact({species: value}, value)

    @classmethod
    def empty(cls) -> "Mixture":
        return cls._exact({}, _ZERO)

    # ------------------------------------------------------------------
    @property
    def volume(self) -> Fraction:
        return self._volume

    @property
    def is_empty(self) -> bool:
        return not self.components

    def species(self) -> tuple[str, ...]:
        return tuple(sorted(self.components))

    def concentration(self, species: str) -> Fraction:
        """Volume fraction of ``species`` in the mixture (0 when absent)."""
        total = self.volume
        if total == 0:
            return Fraction(0)
        return self.components.get(species, Fraction(0)) / total

    def amount(self, species: str) -> Fraction:
        return self.components.get(species, Fraction(0))

    # ------------------------------------------------------------------
    def merge(self, other: "Mixture") -> "Mixture":
        """The mixture obtained by combining self and other (new object)."""
        if not other.components:
            return Mixture._exact(dict(self.components), self._volume)
        if not self.components:
            return Mixture._exact(dict(other.components), other._volume)
        merged = dict(self.components)
        for species, volume in other.components.items():
            have = merged.get(species)
            merged[species] = volume if have is None else have + volume
        return Mixture._exact(merged, self._volume + other._volume)

    def take(self, volume: Number) -> "Mixture":
        """Remove ``volume`` proportionally from every component.

        Returns the removed portion as a new mixture; mutates self.

        Raises:
            ValueError: if more than the available volume is requested.
        """
        requested = as_fraction(volume)
        if requested < 0:
            raise ValueError(f"cannot take a negative volume ({volume})")
        total = self._volume
        if requested > total:
            raise ValueError(
                f"cannot take {float(requested)} nl from {float(total)} nl"
            )
        if requested == 0:
            return Mixture.empty()
        if requested == total:
            return self.take_all()
        # 0 < share < 1: every part and every remainder of a positive
        # component is positive, and the parts sum to ``requested``
        share = requested / total
        taken: dict[str, Fraction] = {}
        remaining: dict[str, Fraction] = {}
        for species, amount in self.components.items():
            part = amount * share
            taken[species] = part
            remaining[species] = amount - part
        self.components = remaining
        self._volume = total - requested
        return Mixture._exact(taken, requested)

    def take_all(self) -> "Mixture":
        """Remove everything; returns it as a new mixture."""
        taken = Mixture._exact(self.components, self._volume)
        self.components = {}
        self._volume = _ZERO
        return taken

    def split(self, volumes: Iterable[Number]) -> tuple["Mixture", ...]:
        """Split off several portions in sequence (mutates self)."""
        return tuple(self.take(volume) for volume in volumes)

    def scaled(self, factor: Number) -> "Mixture":
        """A new mixture with every component scaled by ``factor``."""
        scale = as_fraction(factor)
        if scale < 0:
            raise ValueError("scale factor must be >= 0")
        return Mixture(
            {species: amount * scale for species, amount in self.components.items()}
        )

    def relabelled(self, species: str) -> "Mixture":
        """Collapse the composition into one new species of equal volume.

        Models chemistry that creates a genuinely new fluid (e.g. an
        enzymatic digestion): downstream sensing then sees the product, not
        the ingredients.
        """
        return Mixture.pure(species, self.volume)

    # ------------------------------------------------------------------
    def approx_equal(self, other: Mapping[str, Number], tolerance: Number = 0) -> bool:
        tol = as_fraction(tolerance)
        keys = set(self.components) | set(other)
        return all(
            abs(self.amount(k) - as_fraction(other.get(k, 0))) <= tol
            for k in keys
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_empty:
            return "Mixture(empty)"
        parts = ", ".join(
            f"{species}={float(amount):.4g}"
            for species, amount in sorted(self.components.items())
        )
        return f"Mixture({parts}; total={float(self.volume):.4g} nl)"
