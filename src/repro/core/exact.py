"""Exact rationals kept as plain integers.

:class:`fractions.Fraction` normalizes by gcd on every operation and
dispatches through Python-level operator code.  Loops that already know
their operands as integers (DAGSolve's scaled Vnorms, the machine's
mixture vectors and running totals) keep a numerator over one denominator
and build the canonical Fraction only when a value is read.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Any

__all__ = ["trusted_fraction", "RunningSum"]


def trusted_fraction(
    num: int, den: int, _new: Any = object.__new__, _gcd: Any = gcd
) -> Fraction:
    """``Fraction(num, den)`` for plain ints with a known-positive ``den``.

    ``Fraction.__new__``'s type dispatch costs more than the reduction
    itself, so reduce by gcd and fill the slots directly: the canonical
    form is identical to the public constructor's.
    """
    g = _gcd(num, den)
    if g > 1:
        num //= g
        den //= g
    f = _new(Fraction)
    f._numerator = num
    f._denominator = den
    return f


class RunningSum:
    """An exact running total: one integer over a common denominator.

    Each :meth:`add` is integer arithmetic; the denominator only grows to
    the least common multiple of the denominators added.  :attr:`value`
    builds the canonical Fraction once per change.
    """

    __slots__ = ("_num", "_den", "_value")

    def __init__(self, start: Fraction = Fraction(0)) -> None:
        self._num = start.numerator
        self._den = start.denominator
        self._value: Fraction | None = start

    def add(self, value: Fraction) -> None:
        num, den = value.numerator, value.denominator
        if not num:
            return
        have = self._den
        if have % den:
            g = gcd(have, den)
            self._num = self._num * (den // g) + num * (have // g)
            self._den = have // g * den
        else:
            self._num += num * (have // den)
        self._value = None

    @property
    def value(self) -> Fraction:
        value = self._value
        if value is None:
            value = self._value = trusted_fraction(self._num, self._den)
        return value
