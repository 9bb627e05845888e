"""Deterministic fault injection for the PLoC model.

The volume-management hierarchy bottoms out in Biostream-style
regeneration as the reactive fallback; to *test* that fallback (and to
measure how plans degrade when hardware misbehaves, cf. the storage/
transport cost models of the flow-based synthesis literature) we need a
fault model that is repeatable down to the byte.  This module provides it:

* :class:`FaultPlan` — a pure-value description of *which* faults can
  happen: an explicit RNG seed, a fault rate, the enabled
  :class:`FaultKind` set, and optionally an explicit schedule of
  :class:`ScheduledFault` entries for targeted tests.
* :class:`FaultInjector` — the runtime object the machine consults.  It
  is installed on a :class:`~repro.machine.Machine` (and shared with its
  :class:`~repro.machine.metering.MeteringPump`) and decides, per
  *(instruction index, attempt)*, whether a fault fires.

Determinism contract
--------------------

Every decision is derived from ``hash(seed | kind | index | occurrence)``
via a :class:`random.Random` seeded afresh with that string for the roll —
no global RNG, no wall clock, no iteration-order dependence.  Each
:class:`FaultInjector` owns the generator it reseeds, so concurrent
executions (``repro serve`` runs stress jobs on worker threads) share
none.  The same :class:`FaultPlan` against
the same program therefore produces the *identical* fault sequence, trace,
and readings on every run; and a plan with ``rate=0`` and no schedule is
a strict no-op (execution is byte-identical to running with no injector
at all — a property test enforces this).

Fault taxonomy
--------------

===================  ====================================================
kind                 effect
===================  ====================================================
metering-drift       a metered transfer is off by ± one least count
dispense-shortfall   a metered move delivers 1-2 least counts short
reservoir-depletion  a move's source is found spilled/evaporated: its
                     contents go to waste and the draw raises
                     :class:`~repro.machine.errors.EmptyError`, which the
                     executor answers with regeneration
sensor-misread       an optical reading is off by ±5% (relative)
transport-failure    a transfer is blocked before any fluid moves
                     (:class:`~repro.machine.errors.TransportError`);
                     retrying the instruction may succeed
===================  ====================================================

``LOSS_KINDS`` (depletion, transport) are *semantically transparent*
under recovery: retries repeat an un-started transfer and regeneration
re-executes producing slices with the same planned volumes, so a run
whose losses stay within the regeneration budget ends with the same
product mixtures as a fault-free run.  ``PERTURBING_KINDS`` (drift,
shortfall, misread) change delivered volumes or readings and are
reported, not corrected.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from collections.abc import Iterable

from .trace import ExecutionTrace, FaultEvent

__all__ = [
    "FaultKind",
    "ScheduledFault",
    "FaultPlan",
    "FaultInjector",
    "ALL_KINDS",
    "LOSS_KINDS",
    "PERTURBING_KINDS",
    "parse_kinds",
]

class FaultKind(str, Enum):
    """One class of injected hardware misbehaviour."""

    METERING_DRIFT = "metering-drift"
    DISPENSE_SHORTFALL = "dispense-shortfall"
    RESERVOIR_DEPLETION = "reservoir-depletion"
    SENSOR_MISREAD = "sensor-misread"
    TRANSPORT_FAILURE = "transport-failure"


ALL_KINDS: frozenset[FaultKind] = frozenset(FaultKind)
#: recoverable volume-loss faults: recovery restores exact semantics.
LOSS_KINDS: frozenset[FaultKind] = frozenset(
    {FaultKind.RESERVOIR_DEPLETION, FaultKind.TRANSPORT_FAILURE}
)
#: value-perturbing faults: reported in the trace, not corrected.
PERTURBING_KINDS: frozenset[FaultKind] = ALL_KINDS - LOSS_KINDS


def parse_kinds(names: Iterable[str]) -> frozenset[FaultKind]:
    """Parse kind names (CLI ``--kinds`` values) into a kind set."""
    kinds = set()
    for name in names:
        text = name.strip()
        if not text:
            continue
        try:
            kinds.add(FaultKind(text))
        except ValueError:
            valid = ", ".join(sorted(k.value for k in FaultKind))
            raise ValueError(
                f"unknown fault kind {text!r}; valid kinds: {valid}"
            ) from None
    return frozenset(kinds)


@dataclass(frozen=True)
class ScheduledFault:
    """An explicitly scheduled fault (fires regardless of the rate).

    ``occurrence`` is 1-based: occurrence 2 of index 7 means "the second
    time instruction 7 executes" (retries and regeneration re-executions
    each count as one occurrence).
    """

    index: int
    kind: FaultKind
    occurrence: int = 1
    #: kind-specific size in least counts (drift sign, shortfall depth) or
    #: relative delta (misread); None picks the seeded default.
    magnitude: Fraction | None = None


@dataclass(frozen=True)
class FaultPlan:
    """Pure-value description of a fault scenario.

    Attributes:
        seed: the explicit RNG seed; every decision derives from it.
        rate: per-(kind, attempt) probability that a fault fires.
        kinds: which fault classes are enabled.
        schedule: explicit faults, fired in addition to the seeded ones.
        misread_relative: relative size of a sensor misread.
        max_shortfall_counts: worst dispense shortfall, in least counts.
    """

    seed: int = 0
    rate: float = 0.0
    kinds: frozenset[FaultKind] = ALL_KINDS
    schedule: tuple[ScheduledFault, ...] = ()
    misread_relative: Fraction = Fraction(1, 20)
    max_shortfall_counts: int = 2

    @classmethod
    def seeded(
        cls,
        seed: int,
        rate: float,
        *,
        kinds: Iterable[FaultKind] = ALL_KINDS,
    ) -> "FaultPlan":
        return cls(seed=seed, rate=rate, kinds=frozenset(kinds))

    @classmethod
    def none(cls) -> "FaultPlan":
        """The zero-fault plan (a strict no-op under injection)."""
        return cls(seed=0, rate=0.0, schedule=())

    # ------------------------------------------------------------------
    def roll(
        self,
        kind: FaultKind,
        index: int,
        occurrence: int,
        rng: random.Random | None = None,
    ) -> ScheduledFault | None:
        """Decide whether ``kind`` fires at (``index``, ``occurrence``).

        ``rng`` is reseeded for the roll, exactly as a fresh generator
        would be; without one the roll builds its own.
        """
        for entry in self.schedule:
            if (
                entry.index == index
                and entry.kind is kind
                and entry.occurrence == occurrence
            ):
                return entry
        if kind not in self.kinds or self.rate <= 0.0:
            return None
        # str seeding hashes the bytes (sha512), so decisions are stable
        # across processes and PYTHONHASHSEED values.
        key = f"{self.seed}|{kind.value}|{index}|{occurrence}"
        if rng is None:
            rng = random.Random(key)
        else:
            rng.seed(key)
        if rng.random() >= self.rate:
            return None
        return ScheduledFault(
            index, kind, occurrence, magnitude=self._magnitude(kind, rng)
        )

    def _magnitude(self, kind: FaultKind, rng: random.Random) -> Fraction | None:
        if kind is FaultKind.METERING_DRIFT:
            return Fraction(rng.choice((-1, 1)))          # ± one least count
        if kind is FaultKind.DISPENSE_SHORTFALL:
            return Fraction(rng.randint(1, self.max_shortfall_counts))
        if kind is FaultKind.SENSOR_MISREAD:
            return rng.choice((-1, 1)) * self.misread_relative
        return None                                       # depletion / transport

    def describe(self) -> dict[str, object]:
        return {
            "seed": self.seed,
            "rate": self.rate,
            "kinds": sorted(k.value for k in self.kinds),
            "scheduled": len(self.schedule),
        }


class FaultInjector:
    """Runtime fault source for one execution.

    The machine calls :meth:`begin` before executing each instruction;
    the hooks then consult the plan against the current *(index,
    occurrence)* and record every fired fault into the machine's trace.
    One injector serves one execution — build a fresh one per run.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.trace: ExecutionTrace | None = None
        self.least: Fraction = Fraction(0)
        self.injected: dict[str, int] = {}
        self._attempts: dict[int, int] = {}
        self._index: int = -1
        self._occurrence: int = 0
        self._location: str = ""
        #: reseeded on every roll; never shared between injectors.
        self._rng = random.Random()

    # ------------------------------------------------------------------
    def install(self, trace: ExecutionTrace, least_count: Fraction) -> None:
        """Attach to a machine's trace and least count (Machine does this)."""
        self.trace = trace
        self.least = least_count

    def begin(self, index: int, location: str = "") -> None:
        """Mark the start of one execution attempt of instruction ``index``."""
        self._attempts[index] = self._attempts.get(index, 0) + 1
        self._index = index
        self._occurrence = self._attempts[index]
        self._location = location

    # ------------------------------------------------------------------
    def _fire(self, kind: FaultKind) -> ScheduledFault | None:
        return self.plan.roll(kind, self._index, self._occurrence, self._rng)

    def _record(
        self,
        kind: FaultKind,
        *,
        location: str = "",
        magnitude: Fraction | None = None,
        note: str = "",
    ) -> None:
        self.injected[kind.value] = self.injected.get(kind.value, 0) + 1
        if self.trace is not None:
            self.trace.record_fault(
                FaultEvent(
                    index=self._index,
                    kind=kind.value,
                    location=location or self._location,
                    magnitude=magnitude,
                    note=note,
                )
            )

    # -- hooks, in execution order --------------------------------------
    def transport_blocked(self, location: str) -> bool:
        """True when a transient transport/valve failure blocks this
        attempt (nothing has moved yet)."""
        fired = self._fire(FaultKind.TRANSPORT_FAILURE)
        if fired is None:
            return False
        self._record(
            FaultKind.TRANSPORT_FAILURE,
            location=location,
            note="transfer blocked; retry may succeed",
        )
        return True

    def depleted(self, location: str) -> bool:
        """True when the source at ``location`` should be found spilled.
        The caller discards its contents and lets the draw underflow."""
        return self._fire(FaultKind.RESERVOIR_DEPLETION) is not None

    def record_depletion(self, location: str, lost: Fraction) -> None:
        self._record(
            FaultKind.RESERVOIR_DEPLETION,
            location=location,
            magnitude=lost,
            note="contents lost to waste",
        )

    def metering_drift(
        self, volume: Fraction, *, headroom: Fraction | None = None
    ) -> Fraction:
        """Apply ± least-count drift to a metered volume.

        The result stays ≥ the least count, and ≤ ``headroom`` when given
        (a pump cannot overfill the destination it backpressures against).
        """
        fired = self._fire(FaultKind.METERING_DRIFT)
        if fired is None:
            return volume
        sign = fired.magnitude if fired.magnitude is not None else Fraction(1)
        drifted = volume + sign * self.least
        if drifted < self.least:
            drifted = self.least
        if headroom is not None and drifted > headroom:
            drifted = min(volume, headroom)
        if drifted == volume:
            return volume  # clamped into a no-op: nothing observable happened
        self._record(
            FaultKind.METERING_DRIFT,
            magnitude=drifted - volume,
            note="metered volume drifted",
        )
        return drifted

    def dispense_shortfall(self, volume: Fraction) -> Fraction:
        """Deliver short by 1..max_shortfall_counts least counts."""
        fired = self._fire(FaultKind.DISPENSE_SHORTFALL)
        if fired is None:
            return volume
        counts = fired.magnitude if fired.magnitude is not None else Fraction(1)
        delivered = volume - counts * self.least
        if delivered < self.least:
            delivered = self.least
        if delivered == volume:
            return volume
        self._record(
            FaultKind.DISPENSE_SHORTFALL,
            magnitude=volume - delivered,
            note="dispense fell short",
        )
        return delivered

    def misread(self, reading: Fraction, location: str) -> Fraction:
        """Perturb an optical reading by ±misread_relative."""
        fired = self._fire(FaultKind.SENSOR_MISREAD)
        if fired is None:
            return reading
        delta = (
            fired.magnitude
            if fired.magnitude is not None
            else self.plan.misread_relative
        )
        perturbed = reading * (1 + delta)
        self._record(
            FaultKind.SENSOR_MISREAD,
            location=location,
            magnitude=delta,
            note="reading perturbed (relative)",
        )
        return perturbed
