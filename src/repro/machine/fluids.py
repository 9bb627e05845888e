"""Mixture tracking: fluids as exact composition vectors.

A :class:`Mixture` maps *species* (the names of primary input fluids) to the
volume each contributes.  Mixing merges vectors; drawing a portion splits
every component proportionally (assays always mix before splitting, so
homogeneity is a safe model).

Every transfer is a whole number of least counts (paper Section 2.1), so
a mixture keeps its species amounts as integers over one per-mixture
denominator, as mixing-graph theory writes a concentration vector.
Merging and splitting are integer arithmetic reduced once by one gcd;
the amounts, volume and concentrations are the canonical
:class:`fractions.Fraction` nanoliters the rest of the code base uses,
built only when read, so conservation checks in tests stay exact.
"""

from __future__ import annotations

from fractions import Fraction
from collections.abc import Iterable, Mapping
from math import gcd, lcm

from ..core.exact import trusted_fraction
from ..core.limits import Number, as_fraction

__all__ = ["Mixture"]


def _reduced(
    amounts: dict[str, int], den: int, total: int
) -> tuple[dict[str, int], int, int]:
    """Positive ``amounts`` over ``den`` (summing to ``total``), divided by
    their one common factor with ``den``."""
    g = gcd(den, *amounts.values())
    if g > 1:
        amounts = {species: n // g for species, n in amounts.items()}
        den //= g
        total //= g
    return amounts, den, total


class Mixture:
    """A volume of (possibly mixed) fluid.

    Representation: ``_amounts[s] / _den`` is the volume of species ``s``.
    Invariants: every amount is a positive int, ``_den > 0``, the amounts
    and ``_den`` share no common factor (so equal mixtures have equal
    representations), and ``_total`` is the sum of the amounts.  The
    empty mixture has no amounts and ``_den == 1``.
    """

    __slots__ = ("_amounts", "_den", "_total", "_volume")

    def __init__(self, components: Mapping[str, Number] | None = None) -> None:
        values: dict[str, Fraction] = {}
        for species, volume in (components or {}).items():
            value = as_fraction(volume)
            if value < 0:
                raise ValueError(
                    f"negative volume {volume} for species {species!r}"
                )
            if value > 0:
                values[species] = value
        den = lcm(*(value.denominator for value in values.values()))
        # over the least common denominator the amounts are already
        # coprime with it: no reduction needed
        amounts = {
            species: value.numerator * (den // value.denominator)
            for species, value in values.items()
        }
        self._set(amounts, den, sum(amounts.values()))

    def _set(self, amounts: dict[str, int], den: int, total: int) -> None:
        self._amounts = amounts
        self._den = den
        self._total = total
        self._volume: Fraction | None = None

    @classmethod
    def _of(cls, amounts: dict[str, int], den: int, total: int) -> "Mixture":
        """A mixture over ``amounts``, taken as they are.

        Trusted: the caller hands over a dict that already meets the class
        invariants, so the public constructor's validation is skipped.
        """
        mixture = cls.__new__(cls)
        mixture._set(amounts, den, total)
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
        num = value.numerator
        return cls._of({species: num}, value.denominator, num)

    @classmethod
    def empty(cls) -> "Mixture":
        return cls._of({}, 1, 0)

    # ------------------------------------------------------------------
    @property
    def components(self) -> dict[str, Fraction]:
        """Each species' volume: a new dict on every read."""
        den = self._den
        return {
            species: trusted_fraction(n, den)
            for species, n in self._amounts.items()
        }

    @property
    def volume(self) -> Fraction:
        volume = self._volume
        if volume is None:
            volume = self._volume = trusted_fraction(self._total, self._den)
        return volume

    @property
    def is_empty(self) -> bool:
        return not self._amounts

    def species(self) -> tuple[str, ...]:
        return tuple(sorted(self._amounts))

    def concentration(self, species: str) -> Fraction:
        """Volume fraction of ``species`` in the mixture (0 when absent)."""
        n = self._amounts.get(species)
        if n is None:
            return Fraction(0)
        return trusted_fraction(n, self._total)

    def amount(self, species: str) -> Fraction:
        n = self._amounts.get(species)
        if n is None:
            return Fraction(0)
        return trusted_fraction(n, self._den)

    # -- comparisons with a bound, decided by integer cross-multiplication
    def holds(self, volume: Fraction) -> bool:
        """Whether ``volume`` is at most this mixture's volume."""
        return volume.numerator * self._den <= self._total * volume.denominator

    def fits_with(self, other: "Mixture", capacity: Fraction) -> bool:
        """Whether this mixture and ``other`` together are at most
        ``capacity``."""
        den, den2 = self._den, other._den
        return (
            self._total * den2 + other._total * den
        ) * capacity.denominator <= capacity.numerator * den * den2

    def room_in(self, capacity: Fraction) -> Fraction:
        """``capacity`` less this mixture's volume."""
        den, cap_den = self._den, capacity.denominator
        return trusted_fraction(
            capacity.numerator * den - self._total * cap_den, cap_den * den
        )

    # ------------------------------------------------------------------
    def merge(self, other: "Mixture") -> "Mixture":
        """The mixture obtained by combining self and other (new object)."""
        if not other._amounts:
            return self._copy()
        if not self._amounts:
            return other._copy()
        den, den2 = self._den, other._den
        if den == den2:
            merged = dict(self._amounts)
            for species, n in other._amounts.items():
                merged[species] = merged.get(species, 0) + n
            total = self._total + other._total
        else:
            g = gcd(den, den2)
            f1, f2 = den2 // g, den // g
            merged = {species: n * f1 for species, n in self._amounts.items()}
            for species, n in other._amounts.items():
                merged[species] = merged.get(species, 0) + n * f2
            den *= f1
            total = self._total * f1 + other._total * f2
        return Mixture._of(*_reduced(merged, den, total))

    def _copy(self) -> "Mixture":
        copy = Mixture._of(dict(self._amounts), self._den, self._total)
        copy._volume = self._volume
        return copy

    def take(self, volume: Number) -> "Mixture":
        """Remove ``volume`` proportionally from every component.

        Returns the removed portion as a new mixture; mutates self.

        Raises:
            ValueError: if more than the available volume is requested.
        """
        requested = as_fraction(volume)
        p, q = requested.numerator, requested.denominator
        if p < 0:
            raise ValueError(f"cannot take a negative volume ({volume})")
        total, den = self._total, self._den
        # requested vs the volume total/den, both over den * q
        wanted, have = p * den, total * q
        if wanted > have:
            raise ValueError(
                f"cannot take {float(requested)} nl from {float(self.volume)} nl"
            )
        if p == 0:
            return Mixture.empty()
        if wanted == have:
            return self.take_all()
        # 0 < share < 1: the taken part of amount n is n * p / (q * total)
        # and the rest n * (have - wanted) / (den * q * total); every part
        # and every remainder of a positive amount is positive
        amounts = self._amounts
        left = have - wanted
        taken = Mixture._of(
            *_reduced(
                {species: n * p for species, n in amounts.items()},
                q * total,
                total * p,
            )
        )
        taken._volume = requested
        self._set(
            *_reduced(
                {species: n * left for species, n in amounts.items()},
                den * q * total,
                total * left,
            )
        )
        return taken

    def take_all(self) -> "Mixture":
        """Remove everything; returns it as a new mixture."""
        taken = Mixture._of(self._amounts, self._den, self._total)
        taken._volume = self._volume
        self._set({}, 1, 0)
        return taken

    def split(self, volumes: Iterable[Number]) -> tuple["Mixture", ...]:
        """Split off several portions in sequence (mutates self)."""
        return tuple(self.take(volume) for volume in volumes)

    def scaled(self, factor: Number) -> "Mixture":
        """A new mixture with every component scaled by ``factor``."""
        scale = as_fraction(factor)
        if scale < 0:
            raise ValueError("scale factor must be >= 0")
        p, q = scale.numerator, scale.denominator
        if p == 0 or not self._amounts:
            return Mixture.empty()
        return Mixture._of(
            *_reduced(
                {species: n * p for species, n in self._amounts.items()},
                self._den * q,
                self._total * p,
            )
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
        keys = set(self._amounts) | set(other)
        return all(
            abs(self.amount(k) - as_fraction(other.get(k, 0))) <= tol
            for k in keys
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mixture):
            return NotImplemented
        return self._den == other._den and self._amounts == other._amounts

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_empty:
            return "Mixture(empty)"
        parts = ", ".join(
            f"{species}={float(amount):.4g}"
            for species, amount in sorted(self.components.items())
        )
        return f"Mixture({parts}; total={float(self.volume):.4g} nl)"
