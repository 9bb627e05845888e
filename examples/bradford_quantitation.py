"""Bradford protein quantitation: shared-reagent stress + curve fitting.

Six reactions share one dye reagent at 1:50 — a volume-management workload
where DAGSolve's equal-output constraint underflows and the LP fallback
(Figure 6's second stage) balances the plan.  The script compiles the
assay, shows which hierarchy stage produced the plan, executes it on the
machine model over a bus topology, fits the standard curve, and estimates
the unknown's protein concentration.

Run:  python examples/bradford_quantitation.py
"""

import dataclasses
from fractions import Fraction

import numpy as np

from repro.assays import extra
from repro.compiler.passes import run_compile
from repro.machine import AQUACORE_SPEC, Machine, bus_topology
from repro.runtime import AssayExecutor

#: hidden ground truth: the unknown is protein at 22% of the BSA stock.
UNKNOWN_CONCENTRATION = 0.22


def main() -> None:
    print("=== Compile (watch the hierarchy pick LP) ===")
    compiled = run_compile(source=extra.BRADFORD_SOURCE).compiled
    print(compiled.plan.summary())

    print("\n=== Execute over the shared-bus interconnect ===")
    # At 100 pl least count the 1:50 standard shares are only 1-2 metering
    # steps, and rounding biases the achieved ratios enough to skew the
    # quantitation by ~20%.  A 10 pl pump (finer PDMS valving) fixes it —
    # quantitation precision is metering precision.
    from repro.core.limits import HardwareLimits

    fine = HardwareLimits(max_capacity=Fraction(100), least_count=Fraction(1, 100))
    compiled = run_compile(
        source=extra.BRADFORD_SOURCE, spec=AQUACORE_SPEC.with_limits(fine)
    ).compiled
    spec = dataclasses.replace(
        AQUACORE_SPEC.with_limits(fine),
        extinction_coefficients={
            "bsa": Fraction(100),
            "unknown": Fraction(str(100 * UNKNOWN_CONCENTRATION)),
        },
    )
    machine = Machine(spec, topology=bus_topology(spec))
    result = AssayExecutor(compiled, machine).run()
    print(f"wet instructions: {result.trace.wet_instruction_count}, "
          f"fluid-path time: {float(result.trace.total_seconds):.0f} s, "
          f"regenerations: {result.regenerations}")

    print("\n=== Standard curve ===")
    # standards dilute BSA 1:1, 1:2, 1:4, 1:8, 1:16, then react 1:50 with
    # dye: the protein fraction in reaction i is (1/(1+2^(i-1))) / 51.
    fractions = np.array([1 / (1 + 2 ** (i - 1)) / 51 for i in range(1, 6)])
    readings = np.array(
        [float(result.results[f"Curve[{i}]"]) for i in range(1, 6)]
    )
    for fraction, reading in zip(fractions, readings):
        print(f"  protein fraction {fraction:.5f} -> OD {reading:.4f}")
    slope, intercept = np.polyfit(fractions, readings, 1)
    print(f"fit: OD = {slope:.2f} x fraction + {intercept:.5f}")

    print("\n=== Unknown ===")
    sample_od = float(result.results["Sample"])
    implied_fraction = (sample_od - intercept) / slope
    # the unknown reacted neat (1:50), so its protein fraction is c/51
    estimated = implied_fraction * 51
    print(f"sample OD: {sample_od:.4f}")
    print(f"estimated concentration: {estimated:.3f} x stock "
          f"(true {UNKNOWN_CONCENTRATION})")
    assert abs(estimated - UNKNOWN_CONCENTRATION) < 0.02


if __name__ == "__main__":
    main()
