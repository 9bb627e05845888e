"""pcr-prep's metering-drift overfill, pinned without seeded rolls.

Of the execute corpus's stress scenarios, pcr-prep under
``FaultPlan.seeded(6, 0.05)`` is the one that fails: metering drift and
a dispense shortfall leave ``mixer1`` at 95.1 nl, and the next planned
draw (5 nl) overfills it, because the plan fills the mixer to its 100 nl
capacity.  :data:`PCR_PREP_SEED_6` is the list of faults that seeded plan
fires, recorded once, so the failure stays pinned however fault
decisions are drawn.
"""

from __future__ import annotations

from fractions import Fraction

from repro.assays import extra
from repro.compiler.passes import run_compile
from repro.machine.faults import FaultInjector, FaultKind, FaultPlan, ScheduledFault
from repro.runtime.executor import AssayExecutor

#: the faults ``FaultPlan.seeded(6, 0.05)`` fires on pcr-prep, in firing
#: order (the last two fire while regeneration re-executes a slice).
PCR_PREP_SEED_6 = (
    ScheduledFault(1, FaultKind.METERING_DRIFT, 1, Fraction(-1)),
    ScheduledFault(2, FaultKind.TRANSPORT_FAILURE, 1),
    ScheduledFault(5, FaultKind.TRANSPORT_FAILURE, 1),
    ScheduledFault(7, FaultKind.DISPENSE_SHORTFALL, 1, Fraction(1)),
    ScheduledFault(19, FaultKind.TRANSPORT_FAILURE, 1),
    ScheduledFault(36, FaultKind.RESERVOIR_DEPLETION, 1),
    ScheduledFault(7, FaultKind.METERING_DRIFT, 2, Fraction(1)),
    ScheduledFault(9, FaultKind.RESERVOIR_DEPLETION, 2),
)


def _run(plan: FaultPlan):
    compiled = run_compile(source=extra.PCR_PREP_SOURCE).compiled
    injector = FaultInjector(plan)
    result = AssayExecutor(
        compiled, injector=injector, capture_failures=True
    ).run()
    return result, injector


def test_scheduled_drift_overfills_mixer1():
    result, injector = _run(FaultPlan(rate=0.0, schedule=PCR_PREP_SEED_6))
    assert not result.succeeded
    failure = result.failure_report
    assert failure.instruction_index == 36
    assert failure.instruction == "move mixer1, s7, 4"
    assert failure.error_kind == "CapacityError"
    assert failure.message == "mixer1: depositing 5 nl into 95.1/100 nl"
    assert failure.location == "mixer1"
    assert (failure.regenerations, failure.transient_retries) == (3, 3)
    assert failure.regeneration_volume == Fraction(327, 10)
    assert injector.injected == {
        "metering-drift": 2,
        "transport-failure": 3,
        "dispense-shortfall": 1,
        "reservoir-depletion": 2,
    }


def test_schedule_is_what_seed_6_fires():
    """Ties the list to its origin: the seeded plan fires exactly these
    faults and fails the same way.  A change to how seeded plans draw
    their faults changes this, not the pin above."""
    fired: list[ScheduledFault] = []

    class Recording(FaultPlan):
        def roll(self, kind, index, occurrence, rng=None):
            entry = super().roll(kind, index, occurrence, rng)
            if entry is not None:
                fired.append(entry)
            return entry

    seeded = FaultPlan.seeded(6, 0.05)
    result, __ = _run(Recording(seed=seeded.seed, rate=seeded.rate))
    assert tuple(fired) == PCR_PREP_SEED_6
    assert result.failure_report.message == (
        "mixer1: depositing 5 nl into 95.1/100 nl"
    )
