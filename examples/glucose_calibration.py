"""Glucose concentration assay (paper Figure 9): full wet workflow.

Compiles the glucose assay, executes it on the AquaCore simulator with a
Beer-Lambert optical model, fits the calibration curve from the four
standard dilutions, and estimates the unknown sample's concentration from
its reading — the actual purpose of the assay in [Srinivasan et al. 2003].

Run:  python examples/glucose_calibration.py
"""

import dataclasses
from fractions import Fraction

import numpy as np

from repro.assays import glucose
from repro.compiler.passes import run_compile
from repro.machine import AQUACORE_SPEC, Machine
from repro.runtime import AssayExecutor

#: ground truth the simulation hides inside the machine: the sample *is*
#: glucose solution at 35% of the standard's concentration.
SAMPLE_CONCENTRATION = 0.35


def main() -> None:
    print("=== Compile ===")
    compiled = run_compile(source=glucose.SOURCE).compiled
    print(f"{len(compiled.program)} AIS instructions; "
          f"plan: {compiled.plan.status}; "
          f"min dispense {float(compiled.assignment.min_edge()[1]):.2f} nl")

    print("\n=== Execute on the AquaCore model ===")
    spec = dataclasses.replace(
        AQUACORE_SPEC,
        extinction_coefficients={
            "Glucose": Fraction(2),
            # the sample's optical response scales with its concentration
            "Sample": Fraction(str(2 * SAMPLE_CONCENTRATION)),
        },
    )
    machine = Machine(spec)
    result = AssayExecutor(compiled, machine).run()
    print(f"wet instructions executed: {result.trace.wet_instruction_count}")
    print(f"regenerations: {result.regenerations}")
    for name, reading in sorted(result.results.items()):
        print(f"  {name} = {float(reading):.4f}")

    print("\n=== Calibration fit ===")
    # The standards dilute glucose 1:1, 1:2, 1:4, 1:8 -> glucose fractions
    # 1/2, 1/3, 1/5, 1/9 of the mixture.
    fractions = np.array([1 / 2, 1 / 3, 1 / 5, 1 / 9])
    readings = np.array(
        [float(result.results[f"Result[{i}]"]) for i in range(1, 5)]
    )
    slope, intercept = np.polyfit(fractions, readings, 1)
    residual = float(
        np.max(np.abs(slope * fractions + intercept - readings))
    )
    print(f"OD = {slope:.4f} x glucose-fraction + {intercept:.4f} "
          f"(max residual {residual:.2e})")

    sample_od = float(result.results["Result[5]"])
    # The sample mix is 1:1 with reagent, so its glucose-equivalent
    # fraction is concentration/2; invert the calibration line.
    implied_fraction = (sample_od - intercept) / slope
    estimated = implied_fraction * 2
    print("\n=== Sample estimate ===")
    print(f"sample OD reading:        {sample_od:.4f}")
    print(f"estimated concentration:  {estimated:.3f} x standard")
    print(f"true concentration:       {SAMPLE_CONCENTRATION:.3f} x standard")
    error = abs(estimated - SAMPLE_CONCENTRATION)
    print(f"absolute error:           {error:.4f}")
    assert error < 0.01, "calibration should recover the concentration"


if __name__ == "__main__":
    main()
