"""Trace timeline semantics: ordering, stamping, and exact round-trips."""

import json
from fractions import Fraction

import pytest

from repro.assays import glucose, glycomics
from repro.compiler.passes import run_compile
from repro.ir.instructions import Opcode
from repro.machine.faults import FaultInjector, FaultPlan
from repro.machine.interpreter import Machine
from repro.machine.trace import (
    ExecutionTrace,
    FaultEvent,
    RecoveryEvent,
    TraceEvent,
)
from repro.runtime.executor import AssayExecutor


def executed_trace():
    compiled = run_compile(source=glucose.SOURCE).compiled
    return AssayExecutor(compiled, Machine(compiled.spec)).run().trace


class TestTimeline:
    def test_events_follow_program_order(self):
        trace = executed_trace()
        assert trace.events, "glucose run must produce events"
        indices = [e.index for e in trace.events]
        assert indices == sorted(indices)

    def test_clock_is_monotone_and_cumulative(self):
        trace = executed_trace()
        clock = Fraction(0)
        for event in trace.events:
            clock += event.seconds
            assert event.clock == clock
            assert event.seconds >= 0
        assert trace.total_seconds == clock

    def test_wet_dry_counts_partition_events(self):
        trace = executed_trace()
        assert (
            trace.wet_instruction_count + trace.dry_instruction_count
            == len(trace.events)
        )

    def test_fault_and_recovery_stamping(self):
        trace = ExecutionTrace()
        trace.record(
            TraceEvent(index=0, opcode="move", text="move a, b",
                       seconds=Fraction(3)),
            wet=True,
        )
        fault = trace.record_fault(
            FaultEvent(index=1, kind="metering-drift",
                       magnitude=Fraction(1, 10))
        )
        assert fault.seq == 1          # after one instruction event
        assert fault.clock == Fraction(3)
        trace.record(
            TraceEvent(index=1, opcode="move", text="move b, c",
                       seconds=Fraction(2)),
            wet=True,
        )
        recovery = trace.record_recovery(
            RecoveryEvent(index=1, action="retry", location="b")
        )
        assert recovery.seq == 2
        assert recovery.clock == Fraction(5)
        # the originals are immutable; the stamped copies are stored
        assert trace.faults == [fault]
        assert trace.recoveries == [recovery]


class TestRoundTrip:
    def build(self):
        trace = ExecutionTrace()
        trace.record(
            TraceEvent(
                index=0,
                opcode="input",
                text="input p1, s1, 10",
                volume=Fraction(99, 10),
                seconds=Fraction(3),
            ),
            wet=True,
        )
        trace.record(
            TraceEvent(index=1, opcode="dry-mov", text="mov r1, 2"),
            wet=False,
        )
        trace.record_fault(
            FaultEvent(
                index=2,
                kind="reservoir-depletion",
                location="s1",
                magnitude=Fraction(99, 10),
                note="contents lost to waste",
            )
        )
        trace.record_recovery(
            RecoveryEvent(
                index=2,
                action="regeneration",
                location="s1",
                attempts=1,
                extra_volume=Fraction(33, 7),
            )
        )
        trace.regeneration_count = 1
        return trace

    def test_record_counts_and_stamps(self):
        trace = self.build()
        assert trace.wet_instruction_count == 1
        assert trace.dry_instruction_count == 1
        assert trace.total_fluid_moved == Fraction(99, 10)
        assert [e.clock for e in trace.events] == [Fraction(3), Fraction(3)]

    def test_exact_round_trip(self):
        trace = self.build()
        restored = ExecutionTrace.from_dict(trace.to_dict())
        assert restored == trace

    def test_round_trip_survives_json(self):
        trace = self.build()
        payload = json.dumps(trace.to_dict(), sort_keys=True)
        restored = ExecutionTrace.from_dict(json.loads(payload))
        assert restored == trace
        # fractions stay exact through the "n/d" encoding
        assert restored.recoveries[0].extra_volume == Fraction(33, 7)

    def test_executed_trace_round_trips(self):
        trace = executed_trace()
        assert ExecutionTrace.from_dict(trace.to_dict()) == trace

    def test_measurements_helper(self):
        trace = ExecutionTrace()
        trace.record(
            TraceEvent(index=4, opcode="sense", text="sense ...",
                       measurement=Fraction(7, 2)),
            wet=True,
        )
        assert trace.measurements() == {4: Fraction(7, 2)}


class TestFaultedTotals:
    """After a faulted run (retries, regenerations, drifted and short
    volumes, a failure) the running totals are the sums of the events."""

    @pytest.mark.parametrize(
        "source, seed",
        [(glucose.SOURCE, 2), (glycomics.SOURCE, 0), (glycomics.SOURCE, 1)],
        ids=["glucose-2", "glycomics-0", "glycomics-1-fails"],
    )
    def test_totals_are_the_event_sums(self, source, seed):
        compiled = run_compile(source=source).compiled
        injector = FaultInjector(FaultPlan.seeded(seed, 0.1))
        trace = AssayExecutor(
            compiled, injector=injector, capture_failures=True
        ).run().trace
        assert trace.faults and trace.recoveries
        clock = moved = Fraction(0)
        for event in trace.events:
            clock += event.seconds
            assert event.clock == clock
            if Opcode(event.opcode).is_wet and event.volume is not None:
                moved += event.volume
        assert trace.total_seconds == clock
        assert trace.total_fluid_moved == moved
        assert type(trace.total_seconds) is Fraction
        assert type(trace.total_fluid_moved) is Fraction
        payload = trace.to_dict()
        restored = ExecutionTrace.from_dict(json.loads(json.dumps(payload)))
        assert restored == trace
        assert restored.to_dict() == payload
        assert restored.total_seconds == clock
        assert restored.total_fluid_moved == moved
