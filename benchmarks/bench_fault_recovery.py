"""Fault-recovery cost: survival, volume overhead, and hook latency.

Three questions about the hardened runtime, answered over the paper's
benchmark assays with the seeded stress harness (everything below is
deterministic — the only non-reproducible numbers are wall clocks):

* **Transparency** — what does carrying a zero-fault injector cost?  The
  hooks sit on the metering/transport hot path, so an installed-but-empty
  ``FaultPlan.none()`` run is timed against a bare run.
* **Survival** — across seeded fault rates, what fraction of runs does
  bounded retry-with-regeneration carry to completion?
* **Volume overhead** — when recovery does fire, how much extra input
  volume does regeneration draw, relative to the fault-free plan?

Results are written to ``benchmarks/BENCH_fault_recovery.json``.  Hard
assertions: zero-fault runs survive with byte-identical readings, and
survival at the lowest rate stays above ``SURVIVAL_FLOOR``.
"""

import json
import pathlib
import time
from fractions import Fraction

import _report

from repro.assays import enzyme as enzyme_assay
from repro.assays import glucose, paper_example
from repro.compiler.passes import run_compile
from repro.machine.faults import FaultInjector, FaultPlan
from repro.machine.interpreter import Machine
from repro.runtime.executor import AssayExecutor
from repro.runtime.stress import stress_compiled

OUT_PATH = pathlib.Path(__file__).resolve().parent / (
    "BENCH_fault_recovery.json"
)

ASSAYS = {
    "figure2": paper_example.SOURCE,
    "glucose": glucose.SOURCE,
    "enzyme": enzyme_assay.SOURCE,
}
FAULT_RATES = (0.02, 0.05, 0.10)
SEEDS = 20
#: at the gentlest rate, bounded recovery should save nearly every run
SURVIVAL_FLOOR = 0.9
TIMING_REPEATS = 5


def bare_run(compiled, injector=None):
    executor = AssayExecutor(
        compiled, Machine(compiled.spec), injector=injector
    )
    return executor.run()


def time_run(compiled, injector_factory):
    best = float("inf")
    for __ in range(TIMING_REPEATS):
        injector = injector_factory() if injector_factory else None
        started = time.perf_counter()
        bare_run(compiled, injector)
        best = min(best, time.perf_counter() - started)
    return best


def test_fault_recovery_costs():
    payload = {"seeds": SEEDS, "rates": list(FAULT_RATES), "assays": {}}

    for name, source in ASSAYS.items():
        compiled = run_compile(source=source).compiled

        # -- transparency: zero-fault injector vs no injector -------------
        plain = bare_run(compiled)
        hooked = bare_run(compiled, FaultInjector(FaultPlan.none()))
        assert hooked.results == plain.results
        assert (
            hooked.machine.output_mixtures == plain.machine.output_mixtures
        )
        wall_plain = time_run(compiled, None)
        wall_hooked = time_run(
            compiled, lambda: FaultInjector(FaultPlan.none())
        )
        hook_overhead = wall_hooked / wall_plain if wall_plain > 0 else 1.0

        baseline_drawn = sum(
            (b.drawn for b in plain.machine.ports.values()), Fraction(0)
        )

        # -- survival + volume overhead across fault rates -----------------
        sweeps = {}
        for rate in FAULT_RATES:
            report = stress_compiled(
                compiled, seeds=SEEDS, fault_rate=rate
            )
            survivors = [s for s in report.scenarios if s.survived]
            extra = sum(
                (s.regeneration_volume for s in survivors), Fraction(0)
            )
            mean_extra = (
                extra / len(survivors) if survivors else Fraction(0)
            )
            sweeps[f"{rate:.2f}"] = {
                "survived": report.survived,
                "survival_rate": report.survival_rate,
                "faults_by_kind": report.faults_by_kind(),
                "recoveries_by_action": report.recoveries_by_action(),
                "mean_extra_volume_nl": float(mean_extra),
                "mean_extra_volume_pct": (
                    float(100 * mean_extra / baseline_drawn)
                    if baseline_drawn
                    else 0.0
                ),
            }

        payload["assays"][name] = {
            "wet_instructions": plain.trace.wet_instruction_count,
            "baseline_drawn_nl": float(baseline_drawn),
            "zero_fault_overhead_x": round(hook_overhead, 3),
            "sweeps": sweeps,
        }

        low = sweeps[f"{FAULT_RATES[0]:.2f}"]
        assert low["survival_rate"] >= SURVIVAL_FLOOR, (
            f"{name}: survival {low['survival_rate']} at rate "
            f"{FAULT_RATES[0]} under floor {SURVIVAL_FLOOR}"
        )

        _report.record(
            "fault recovery",
            f"{name}: survival @ rate {FAULT_RATES[0]:.2f}",
            f">= {SURVIVAL_FLOOR:.0%}",
            f"{low['survival_rate']:.0%} ({low['survived']}/{SEEDS})",
        )
        high = sweeps[f"{FAULT_RATES[-1]:.2f}"]
        _report.record(
            "fault recovery",
            f"{name}: survival @ rate {FAULT_RATES[-1]:.2f}",
            None,
            f"{high['survival_rate']:.0%}, "
            f"+{high['mean_extra_volume_pct']:.1f}% input volume",
        )
        _report.record(
            "fault recovery",
            f"{name}: zero-fault hook overhead",
            "~1x",
            f"{hook_overhead:.2f}x",
        )

    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
