"""Bounded recovery: retry/regeneration caps, budgets, failure reports.

The regression at the heart of this file: a source that is *permanently*
empty (a finite input-port supply that ran dry) used to send
``_regenerate`` into an unbounded top-up loop.  Every give-up path now
raises :class:`RegenerationExhausted` carrying the failing node id and a
machine-readable ``reason`` — or, under ``capture_failures=True``,
degrades into a structured ``ExecutionResult.failure_report``.
"""

import dataclasses
from fractions import Fraction

import pytest

from repro.assays import glucose
from repro.compiler.passes import run_compile
from repro.ir.instructions import Opcode
from repro.machine.errors import RegenerationExhausted, TransportError
from repro.machine.faults import FaultInjector, FaultKind, FaultPlan, ScheduledFault
from repro.machine.interpreter import Machine
from repro.runtime.executor import AssayExecutor, FailureReport, RetryPolicy


def sabotaged_glucose(divisor=4):
    """Quarter the planned input volumes so draws exhaust their sources."""
    compiled = run_compile(source=glucose.SOURCE).compiled
    for node in ("Glucose", "Reagent", "Sample"):
        compiled.assignment.node_volume[node] = (
            compiled.assignment.node_volume[node] / divisor
        )
    return compiled


def first_move_index(compiled):
    for index, instruction in enumerate(compiled.program):
        if instruction.opcode is Opcode.MOVE and instruction.edge is not None:
            return index
    raise AssertionError("no metered move in program")


class TestPermanentlyEmptySource:
    """Satellite: the permanently-empty-source regression."""

    def finite_supply_executor(self, **kwargs):
        compiled = sabotaged_glucose()
        machine = Machine(compiled.spec)
        executor = AssayExecutor(compiled, machine, **kwargs)
        # Rebind every port with exactly the (sabotaged) planned supply:
        # the first regeneration's top-up then runs the port dry.
        for port, binding in list(machine.ports.items()):
            machine.bind_port(port, binding.species, supply=Fraction(30))
        return executor

    def test_raises_diagnostic_instead_of_looping(self):
        executor = self.finite_supply_executor()
        with pytest.raises(RegenerationExhausted) as excinfo:
            executor.run()
        error = excinfo.value
        assert error.reason == "source-exhausted"
        assert error.location is not None
        # the failing node is an input port (off-chip supply)
        assert error.location in executor.machine.ports

    def test_capture_failures_degrades_gracefully(self):
        executor = self.finite_supply_executor(capture_failures=True)
        result = executor.run()
        assert not result.succeeded
        report = result.failure_report
        assert isinstance(report, FailureReport)
        assert report.error_kind == "RegenerationExhausted"
        assert report.location in executor.machine.ports
        assert report.instruction_index >= 0
        payload = report.to_dict()
        assert payload["error_kind"] == "RegenerationExhausted"
        assert payload["location"] == report.location


class TestPolicyBounds:
    def test_max_attempts_cap(self):
        compiled = sabotaged_glucose()
        executor = AssayExecutor(
            compiled,
            Machine(compiled.spec),
            policy=RetryPolicy(max_attempts=0),
        )
        with pytest.raises(RegenerationExhausted) as excinfo:
            executor.run()
        assert excinfo.value.reason == "max-attempts"

    def test_global_regeneration_cap(self):
        compiled = sabotaged_glucose()
        executor = AssayExecutor(
            compiled,
            Machine(compiled.spec),
            policy=RetryPolicy(max_regenerations=0),
        )
        with pytest.raises(RegenerationExhausted) as excinfo:
            executor.run()
        assert excinfo.value.reason == "max-regenerations"

    def test_regeneration_budget(self):
        compiled = sabotaged_glucose()
        executor = AssayExecutor(
            compiled,
            Machine(compiled.spec),
            policy=RetryPolicy(regeneration_budget=Fraction(0)),
        )
        with pytest.raises(RegenerationExhausted) as excinfo:
            executor.run()
        assert excinfo.value.reason == "budget"

    def test_unsabotaged_run_needs_no_budget(self):
        compiled = run_compile(source=glucose.SOURCE).compiled
        executor = AssayExecutor(
            compiled,
            Machine(compiled.spec),
            policy=RetryPolicy(regeneration_budget=Fraction(0)),
        )
        result = executor.run()
        assert result.succeeded
        assert result.regeneration_volume == 0

    def test_recovery_succeeds_within_default_policy(self):
        compiled = sabotaged_glucose()
        result = AssayExecutor(compiled, Machine(compiled.spec)).run()
        assert result.regenerations > 0
        assert result.regeneration_volume > 0
        regen_events = [
            e for e in result.trace.recoveries if e.action == "regeneration"
        ]
        assert len(regen_events) == result.regenerations
        assert (
            sum((e.extra_volume for e in regen_events), Fraction(0))
            == result.regeneration_volume
        )


class TestTransientTransport:
    def scheduled_injector(self, compiled, occurrences):
        index = first_move_index(compiled)
        plan = FaultPlan(
            schedule=tuple(
                ScheduledFault(index, FaultKind.TRANSPORT_FAILURE, occ)
                for occ in occurrences
            )
        )
        return FaultInjector(plan), index

    def test_retry_recovers_from_transient_failure(self):
        compiled = run_compile(source=glucose.SOURCE).compiled
        injector, index = self.scheduled_injector(compiled, (1,))
        executor = AssayExecutor(
            compiled, Machine(compiled.spec), injector=injector
        )
        result = executor.run()
        assert result.succeeded
        assert result.transient_retries == 1
        [retry] = [e for e in result.trace.recoveries if e.action == "retry"]
        assert retry.index == index
        # the retry is recovery bookkeeping, not a wet instruction
        baseline = AssayExecutor(
            run_compile(source=glucose.SOURCE).compiled, Machine(compiled.spec)
        ).run()
        assert (
            result.trace.wet_instruction_count
            == baseline.trace.wet_instruction_count
        )
        assert result.results == baseline.results

    def test_persistent_blockage_exhausts_retries(self):
        compiled = run_compile(source=glucose.SOURCE).compiled
        injector, index = self.scheduled_injector(compiled, (1, 2, 3, 4))
        executor = AssayExecutor(
            compiled,
            Machine(compiled.spec),
            injector=injector,
            policy=RetryPolicy(max_transient_retries=2),
            capture_failures=True,
        )
        result = executor.run()
        assert not result.succeeded
        assert result.failure_report.error_kind == "TransportError"
        assert result.failure_report.instruction_index == index
        assert result.failure_report.faults_injected == {
            "transport-failure": 3
        }

    def test_transport_error_without_capture_propagates(self):
        compiled = run_compile(source=glucose.SOURCE).compiled
        injector, __ = self.scheduled_injector(compiled, (1, 2, 3, 4, 5))
        executor = AssayExecutor(
            compiled,
            Machine(compiled.spec),
            injector=injector,
            policy=RetryPolicy(max_transient_retries=1),
        )
        with pytest.raises(TransportError):
            executor.run()


class TestDepletionRecovery:
    def test_depletion_triggers_regeneration_and_completes(self):
        compiled = run_compile(source=glucose.SOURCE).compiled
        index = first_move_index(compiled)
        plan = FaultPlan(
            schedule=(
                ScheduledFault(index, FaultKind.RESERVOIR_DEPLETION, 1),
            )
        )
        machine = Machine(compiled.spec)
        executor = AssayExecutor(
            compiled, machine, injector=FaultInjector(plan)
        )
        result = executor.run()
        assert result.succeeded
        assert result.regenerations >= 1
        assert machine.injector.injected == {"reservoir-depletion": 1}
        baseline = AssayExecutor(
            run_compile(source=glucose.SOURCE).compiled, Machine(compiled.spec)
        ).run()
        assert result.results == baseline.results
