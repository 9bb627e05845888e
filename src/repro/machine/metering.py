"""Metering pumps: the least-count quantisation of all fluid transport.

The paper (Section 2.1): "At each end of each channel is a microfluidic
pump that effects fluid transfer ... by peristalsis.  These pumps may be
used for accurate volume metering, which is required to handle variable
volumes.  Further, they impose a discrete, minimum volume transport unit,
or least count."

:class:`MeteringPump` is the single place where that constraint lives at
execution time: every transfer must be a positive integer multiple of the
least count.  Planned volumes that are not (because a plan was not rounded)
can either be rejected (``strict=True``) or quantised on the fly, mirroring
the rounding discussion of paper Section 4.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

from ..core.exact import RunningSum
from ..core.limits import HardwareLimits, Number, as_fraction
from .errors import MeteringError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .faults import FaultInjector

__all__ = ["MeteringPump"]


@dataclass
class MeteringPump:
    """Quantised transfer engine shared by all channels of a machine.

    Attributes:
        limits: the hardware least count (and capacity, unused here).
        strict: reject non-multiple volumes instead of quantising them.
        transfer_count: number of transfers effected.
        injector: optional fault source applying ± least-count drift to
            every metered volume (see :mod:`repro.machine.faults`).
    """

    limits: HardwareLimits
    strict: bool = False
    transfer_count: int = 0
    injector: "FaultInjector" | None = None
    _pumped: RunningSum = field(
        default_factory=RunningSum, init=False, repr=False, compare=False
    )

    @property
    def total_pumped(self) -> Fraction:
        """Lifetime volume moved (for trace statistics)."""
        return self._pumped.value

    def meter(
        self, volume: Number, *, headroom: Fraction | None = None
    ) -> Fraction:
        """Validate/quantise a requested transfer volume.

        Returns the volume that will actually move — with an injected
        metering-drift fault applied when a :class:`FaultInjector` is
        installed and fires.  ``headroom`` caps upward drift at the free
        space of the destination (the pump backpressures).

        Raises:
            MeteringError: if the request is below the least count, or is
                not a least-count multiple while ``strict``.
        """
        requested = as_fraction(volume)
        least = self.limits.least_count
        # requested / least as one ratio of integers
        steps = requested.numerator * least.denominator
        per_step = requested.denominator * least.numerator
        if steps < per_step:
            raise MeteringError(
                f"transfer of {float(requested):.6g} nl is below the least "
                f"count of {float(least):.6g} nl",
                requested=requested,
                least_count=least,
            )
        if steps % per_step:
            if self.strict:
                raise MeteringError(
                    f"transfer of {float(requested):.6g} nl is not a "
                    f"multiple of the least count {float(least):.6g} nl",
                    requested=requested,
                    least_count=least,
                )
            requested = self.limits.quantize(requested)
        if self.injector is not None:
            requested = self.injector.metering_drift(
                requested, headroom=headroom
            )
        return requested

    def record(self, volume: Fraction) -> None:
        self._pumped.add(volume)
        self.transfer_count += 1
