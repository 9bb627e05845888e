"""Seeded stress harness: survival matrices under injected faults.

``repro stress`` (and the ``stress`` check of ``tools/corpus.py``) drive
a compiled assay through N deterministic fault scenarios — one
:class:`~repro.machine.faults.FaultPlan` per seed — and tabulate how the
hardened executor coped: how many scenarios survived, what recovery cost
(regenerations, retries, extra input volume), and which fault classes
terminated the runs that failed.

Everything here is deterministic by construction: scenario ``k`` uses the
explicit seed ``k``, executions consume no wall clock or global RNG, and
:meth:`StressReport.render_json` emits canonical (sorted-key) JSON — so
the same invocation twice produces byte-identical reports, which CI
asserts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any
from collections.abc import Callable, Iterable

from ..compiler.passes.context import CompiledAssay
from ..machine.faults import ALL_KINDS, FaultInjector, FaultKind, FaultPlan
from ..machine.interpreter import Machine
from .executor import AssayExecutor, ExecutionResult, FailureReport, RetryPolicy

__all__ = ["ScenarioOutcome", "StressReport", "stress_compiled"]

MachineFactory = Callable[[], Machine]


@dataclass
class ScenarioOutcome:
    """One seeded fault scenario's result."""

    seed: int
    survived: bool
    regenerations: int = 0
    transient_retries: int = 0
    regeneration_volume: Fraction = Fraction(0)
    wet_instructions: int = 0
    faults_injected: dict[str, int] = field(default_factory=dict)
    recoveries: dict[str, int] = field(default_factory=dict)
    #: exact match of every sensor reading against the fault-free run
    #: (None when the scenario failed before completing).
    readings_match: bool | None = None
    failure: FailureReport | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "survived": self.survived,
            "regenerations": self.regenerations,
            "transient_retries": self.transient_retries,
            "regeneration_volume_nl": float(self.regeneration_volume),
            "wet_instructions": self.wet_instructions,
            "faults_injected": dict(sorted(self.faults_injected.items())),
            "recoveries": dict(sorted(self.recoveries.items())),
            "readings_match": self.readings_match,
            "failure": None if self.failure is None else self.failure.to_dict(),
        }


@dataclass
class StressReport:
    """Aggregated survival matrix over all seeded scenarios."""

    assay: str
    fault_rate: float
    kinds: list[str]
    seeds: int
    budget: Fraction | None
    baseline_wet_instructions: int
    baseline_regenerations: int
    scenarios: list[ScenarioOutcome] = field(default_factory=list)

    # -- aggregates -----------------------------------------------------
    @property
    def survived(self) -> int:
        return sum(1 for s in self.scenarios if s.survived)

    @property
    def exit_code(self) -> int:
        """0 when every scenario survived, else 1."""
        return 0 if self.survived == len(self.scenarios) else 1

    @property
    def survival_rate(self) -> float:
        return self.survived / len(self.scenarios) if self.scenarios else 1.0

    def faults_by_kind(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for scenario in self.scenarios:
            for kind, count in scenario.faults_injected.items():
                totals[kind] = totals.get(kind, 0) + count
        return dict(sorted(totals.items()))

    def recoveries_by_action(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for scenario in self.scenarios:
            for action, count in scenario.recoveries.items():
                totals[action] = totals.get(action, 0) + count
        return dict(sorted(totals.items()))

    def terminal_errors(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for scenario in self.scenarios:
            if scenario.failure is not None:
                kind = scenario.failure.error_kind
                totals[kind] = totals.get(kind, 0) + 1
        return dict(sorted(totals.items()))

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": 1,
            "assay": self.assay,
            "fault_rate": self.fault_rate,
            "kinds": sorted(self.kinds),
            "seeds": self.seeds,
            "regeneration_budget_nl": (
                None if self.budget is None else float(self.budget)
            ),
            "baseline": {
                "wet_instructions": self.baseline_wet_instructions,
                "regenerations": self.baseline_regenerations,
            },
            "survived": self.survived,
            "survival_rate": self.survival_rate,
            "faults_by_kind": self.faults_by_kind(),
            "recoveries_by_action": self.recoveries_by_action(),
            "terminal_errors": self.terminal_errors(),
            "scenarios": [s.to_dict() for s in self.scenarios],
        }

    def render_json(self) -> str:
        """Canonical JSON: same seed, same bytes — CI asserts this."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render_text(self) -> str:
        lines = [
            f"{self.assay}: {self.survived}/{len(self.scenarios)} scenarios "
            f"survived (fault rate {self.fault_rate:g}, "
            f"{len(self.kinds)} fault kind(s))",
        ]
        for scenario in self.scenarios:
            if scenario.survived:
                status = "ok"
                if scenario.regenerations or scenario.transient_retries:
                    status += (
                        f"  ({scenario.regenerations} regen, "
                        f"{scenario.transient_retries} retry, "
                        f"+{float(scenario.regeneration_volume):.4g} nl)"
                    )
                if scenario.readings_match is False:
                    status += "  [readings perturbed]"
            else:
                failure = scenario.failure
                status = (
                    f"FAILED at #{failure.instruction_index} "
                    f"{failure.error_kind}"
                    + (f" ({failure.location})" if failure.location else "")
                )
            lines.append(f"  seed {scenario.seed:3d}: {status}")
        faults = self.faults_by_kind()
        if faults:
            lines.append("  faults injected: " + ", ".join(
                f"{kind} x{count}" for kind, count in faults.items()
            ))
        recoveries = self.recoveries_by_action()
        if recoveries:
            lines.append("  recoveries: " + ", ".join(
                f"{action} x{count}" for action, count in recoveries.items()
            ))
        errors = self.terminal_errors()
        if errors:
            lines.append("  terminal errors: " + ", ".join(
                f"{kind} x{count}" for kind, count in errors.items()
            ))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
def _run_once(
    compiled: CompiledAssay,
    machine_factory: MachineFactory | None,
    *,
    injector: FaultInjector | None = None,
    policy: RetryPolicy | None = None,
) -> ExecutionResult:
    machine = machine_factory() if machine_factory is not None else None
    executor = AssayExecutor(
        compiled,
        machine,
        injector=injector,
        policy=policy,
        capture_failures=True,
    )
    return executor.run()


def stress_compiled(
    compiled: CompiledAssay,
    *,
    seeds: int = 10,
    fault_rate: float = 0.05,
    kinds: Iterable[FaultKind] = ALL_KINDS,
    budget: Fraction | None = None,
    policy: RetryPolicy | None = None,
    machine_factory: MachineFactory | None = None,
) -> StressReport:
    """Run ``compiled`` under ``seeds`` deterministic fault scenarios.

    Args:
        compiled: the assay to stress (compiled once, executed N+1 times).
        seeds: number of scenarios; scenario *k* uses seed *k*.
        fault_rate: per-(kind, attempt) fault probability.
        kinds: enabled fault classes (default: all five).
        budget: optional regeneration budget in extra input nl.
        policy: base retry policy; the budget is folded into it.
        machine_factory: builds a fresh machine per run (default: a plain
            ``Machine(compiled.spec)``).

    Every failure surfaces as a structured
    :class:`~repro.runtime.executor.FailureReport` on the scenario — an
    unhandled exception escaping this function is a bug, and the CI corpus
    sweep treats it as one.
    """
    kind_set = frozenset(kinds)
    base_policy = policy or RetryPolicy()
    if budget is not None:
        from dataclasses import replace

        base_policy = replace(base_policy, regeneration_budget=budget)

    baseline = _run_once(compiled, machine_factory)
    baseline_results = dict(baseline.results) if baseline.succeeded else None

    report = StressReport(
        assay=compiled.name,
        fault_rate=fault_rate,
        kinds=sorted(k.value for k in kind_set),
        seeds=seeds,
        budget=budget,
        baseline_wet_instructions=baseline.trace.wet_instruction_count,
        baseline_regenerations=baseline.regenerations,
    )
    for seed in range(seeds):
        plan = FaultPlan.seeded(seed, fault_rate, kinds=kind_set)
        injector = FaultInjector(plan)
        result = _run_once(
            compiled, machine_factory, injector=injector, policy=base_policy
        )
        readings_match: bool | None = None
        if result.succeeded and baseline_results is not None:
            readings_match = dict(result.results) == baseline_results
        report.scenarios.append(
            ScenarioOutcome(
                seed=seed,
                survived=result.succeeded,
                regenerations=result.regenerations,
                transient_retries=result.transient_retries,
                regeneration_volume=result.regeneration_volume,
                wet_instructions=result.trace.wet_instruction_count,
                faults_injected=dict(injector.injected),
                recoveries=_count_recoveries(result),
                readings_match=readings_match,
                failure=result.failure_report,
            )
        )
    return report


def _count_recoveries(result: ExecutionResult) -> dict[str, int]:
    counts: dict[str, int] = {}
    for event in result.trace.recoveries:
        counts[event.action] = counts.get(event.action, 0) + 1
    return counts
