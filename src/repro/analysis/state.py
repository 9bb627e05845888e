"""Abstract domain of the fluid-safety analyzer.

Fluids are **linear resources**: every location (reservoir, functional
unit, separator well) is abstracted to one of four content states —

* ``EMPTY``     — never held fluid (the machine's initial state);
* ``HOLDS``     — holds fluid, with a volume *interval*, the set of
  defining instructions that contributed to the contents, and whether
  the contents are a finished *product* (loaded by ``input``, or an
  operation completed in place) rather than ingredients still
  accumulating for one;
* ``CONSUMED``  — held fluid that has since been fully moved out or
  drained off-chip (the post-state of a whole-content ``move``/``output``
  or a ``separate`` feed).  Reading a CONSUMED location is the
  linear-type violation the paper's destructive-use model forbids;
* ``UNKNOWN``   — the analyzer lost track (e.g. after reporting a
  use-after-consume it deliberately degrades the location to UNKNOWN so
  one root cause does not cascade into a wall of findings).

Volumes are tracked as closed intervals ``[lo, hi]`` of exact
:data:`Volume` values, with ``hi=None`` meaning unbounded — counted in
least counts by the occupancy walk
(:class:`~repro.analysis.dataflow.ForwardAnalysis`), in nanoliters by
the source-level engine (:mod:`repro.analysis.sourceflow`); only
statically-known quantities (``move-abs`` volumes, absolute input
loads) tighten the bounds, so interval findings are
*definite* — a ``static-overflow`` fires only when the lower bound alone
already exceeds capacity.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from enum import Enum, unique
from fractions import Fraction
from typing import NamedTuple, TypeAlias

__all__ = [
    "Volume",
    "VolumeInterval",
    "ContentKind",
    "AbsContent",
    "AbstractState",
]

#: An exact volume: an ``int`` when whole — the common case, which keeps
#: the interval arithmetic on cheap Python ints — otherwise a
#: :class:`~fractions.Fraction`.
Volume: TypeAlias = int | Fraction


class VolumeInterval(NamedTuple):
    """A closed interval of possible volumes; ``hi=None`` is unbounded."""

    lo: Volume = 0
    hi: Volume | None = None

    @classmethod
    def exact(cls, volume: Volume) -> "VolumeInterval":
        return cls(volume, volume)

    @classmethod
    def at_most(cls, volume: Volume) -> "VolumeInterval":
        return cls(0, volume)

    @classmethod
    def zero(cls) -> "VolumeInterval":
        return _ZERO

    @property
    def is_exact(self) -> bool:
        return self.hi is not None and self.lo == self.hi

    def add(self, other: "VolumeInterval") -> "VolumeInterval":
        hi = None if self.hi is None or other.hi is None else self.hi + other.hi
        return VolumeInterval(self.lo + other.lo, hi)

    def subtract(self, other: "VolumeInterval") -> "VolumeInterval":
        """Interval difference for a draw of ``other`` out of ``self``,
        clamped at zero (a pump cannot leave negative residue)."""
        lo: Volume = 0
        hi: Volume | None = None
        if self.hi is not None:
            hi = self.hi - other.lo if self.hi > other.lo else 0
            if self.lo and other.hi is not None and self.lo > other.hi:
                lo = self.lo - other.hi
        return VolumeInterval(lo, hi)

    def scaled(self, factor: Fraction) -> "VolumeInterval":
        return VolumeInterval(
            self.lo * factor, None if self.hi is None else self.hi * factor
        )

    def clamped(self, capacity: Volume | None) -> "VolumeInterval":
        """Cap the upper bound at a physical capacity (a container can
        never actually hold more; overflow is reported separately)."""
        if capacity is None or (self.hi is not None and self.hi <= capacity):
            return self
        hi = capacity if self.hi is None else min(self.hi, capacity)
        return VolumeInterval(min(self.lo, capacity), hi)

    # ------------------------------------------------------------------
    # lattice operators (used by the source-level fixpoint engine,
    # repro.analysis.sourceflow; ⊥ is represented by absence of state)
    # ------------------------------------------------------------------
    def join(self, other: "VolumeInterval") -> "VolumeInterval":
        """Least upper bound: the interval hull of the two operands."""
        hi = None if self.hi is None or other.hi is None else max(self.hi, other.hi)
        return VolumeInterval(min(self.lo, other.lo), hi)

    def widen(self, other: "VolumeInterval") -> "VolumeInterval":
        """Standard interval widening of ``self`` (old) by ``other`` (new):
        any bound still moving jumps to its extreme (0 below — volumes are
        nonnegative — and unbounded above), guaranteeing the ascending
        chain stabilises."""
        lo = self.lo if other.lo >= self.lo else 0
        hi = self.hi
        if hi is not None and (other.hi is None or other.hi > hi):
            hi = None
        return VolumeInterval(lo, hi)

    def narrow(self, other: "VolumeInterval") -> "VolumeInterval":
        """One narrowing step: recover bounds that widening threw away
        (only bounds at their extreme are refined from ``other``)."""
        lo = other.lo if self.lo == 0 else self.lo
        hi = other.hi if self.hi is None else self.hi
        return VolumeInterval(lo, hi)

    def __str__(self) -> str:
        hi = "inf" if self.hi is None else f"{float(self.hi):g}"
        return f"[{float(self.lo):g}, {hi}]"


_ZERO = VolumeInterval(0, 0)


@unique
class ContentKind(Enum):
    EMPTY = "empty"
    HOLDS = "holds"
    CONSUMED = "consumed"
    UNKNOWN = "unknown"


_MAY_HOLD = (ContentKind.HOLDS, ContentKind.UNKNOWN)


class AbsContent(NamedTuple):
    """Abstract contents of one location."""

    kind: ContentKind
    volume: VolumeInterval = _ZERO
    #: indices of the instructions whose fluid contributed to the contents
    #: (the def sites of the value-flow graph).
    defs: frozenset[int] = frozenset()
    #: the contents are a finished product, not ingredients still
    #: accumulating (see the module docstring).
    product: bool = False

    @classmethod
    def empty(cls) -> "AbsContent":
        return _EMPTY

    @classmethod
    def consumed(cls, defs: frozenset[int] = frozenset()) -> "AbsContent":
        return cls(ContentKind.CONSUMED, _ZERO, defs)

    @classmethod
    def unknown(cls) -> "AbsContent":
        return cls(ContentKind.UNKNOWN, VolumeInterval())

    @classmethod
    def holding(
        cls,
        volume: VolumeInterval,
        defs: frozenset[int] = frozenset(),
        product: bool = False,
    ) -> "AbsContent":
        return cls(ContentKind.HOLDS, volume, defs, product)

    @property
    def may_hold_fluid(self) -> bool:
        return self.kind in _MAY_HOLD

    # ------------------------------------------------------------------
    # lattice operators.  ``UNKNOWN`` doubles as ⊤ (two disagreeing
    # definite states join to it); ⊥ is represented by absence of state
    # in the source-level environment (an unreachable location).
    # ------------------------------------------------------------------
    def join(self, other: "AbsContent") -> "AbsContent":
        """Least upper bound.  Def sites are provenance metadata and
        accumulate monotonically even through ⊤; the contents are a
        product only when both sides are."""
        kind = self.kind if self.kind is other.kind else ContentKind.UNKNOWN
        return AbsContent(
            kind,
            self.volume.join(other.volume),
            self.defs | other.defs,
            self.product and other.product,
        )

    def widen(self, other: "AbsContent") -> "AbsContent":
        """Widening of ``self`` (old) by ``other`` (new): the content
        lattice is finite so only the volume interval needs widening."""
        kind = self.kind if self.kind is other.kind else ContentKind.UNKNOWN
        return AbsContent(
            kind,
            self.volume.widen(other.volume),
            self.defs | other.defs,
            self.product and other.product,
        )


_EMPTY = AbsContent(ContentKind.EMPTY)


class AbstractState:
    """Per-location abstract contents; a location never set is EMPTY.

    Locations are kept in the order their current occupancy began: one
    that goes from empty (or consumed) to possibly holding fluid moves
    to the end.
    """

    def __init__(self, initial: Mapping[str, AbsContent] | None = None) -> None:
        self._locations: dict[str, AbsContent] = dict(initial or {})

    def get(self, location: str) -> AbsContent:
        return self._locations.get(location, _EMPTY)

    def set(self, location: str, content: AbsContent, weak: bool = False) -> None:
        """Store ``content``; a ``weak`` update keeps the old contents
        possible (a guarded instruction may not execute at all)."""
        old = self._locations.get(location, _EMPTY)
        if weak:
            content = old.join(content)
        if content.kind in _MAY_HOLD and old.kind not in _MAY_HOLD:
            self._locations.pop(location, None)
        self._locations[location] = content

    def items(self) -> Iterator[tuple[str, AbsContent]]:
        """``(location, contents)`` pairs, in occupancy order."""
        return iter(self._locations.items())
