"""Glycomics assay (paper Figure 10): run-time volume management.

The three chromatography/affinity separations produce volumes nobody knows
at compile time, so the compiler partitions the DAG (Figure 13) and defers
each partition's dispensing until its measurements exist.  This script runs
the assay twice — once with generous separation yields and once with a
starved second separation — to show the run-time system scaling partitions
to measured volumes and, in the starved case, how close the X2 = 1/204
constrained input sails to the least count (the paper's explicit concern).

Run:  python examples/glycomics_runtime.py
"""

from fractions import Fraction

from repro.assays import glycomics
from repro.compiler.passes import run_compile
from repro.machine import AQUACORE_SPEC, Machine, SpeciesFilter, FractionalYield
from repro.runtime import AssayExecutor


def run_with(yield1: Fraction, yield2: Fraction, label: str) -> None:
    print(f"--- {label}: affinity yield {float(yield1):.0%}, "
          f"LC yield {float(yield2):.0%} ---")
    compiled = run_compile(source=glycomics.SOURCE).compiled
    machine = Machine(
        AQUACORE_SPEC,
        separation_models={
            "separator1": FractionalYield(yield1),
            "separator2": FractionalYield(yield2),
        },
    )
    executor = AssayExecutor(compiled, machine)
    result = executor.run()
    print(f"  regenerations: {result.regenerations}")
    for node, measured in result.measurements.entries:
        print(f"  measured {node}: {float(measured):.2f} nl")
    session = executor.resolver.session
    for index, assignment in sorted(session.assignments.items()):
        key, minimum = assignment.min_edge()
        print(
            f"  partition {index}: scale {float(assignment.scale):8.2f}, "
            f"min transfer {float(minimum):7.3f} nl "
            f"({key[0]} -> {key[1]})"
        )
    print()


def main() -> None:
    compiled = run_compile(source=glycomics.SOURCE).compiled
    print("=== Compile-time analysis ===")
    print(f"partitions: {compiled.planner.n_partitions} "
          "(the Figure 13 cut at the three separators)")
    for partition in compiled.planner.partitions:
        constrained = ", ".join(
            f"{s.node_id} ({'measured' if s.needs_measurement else f'{float(s.static_available):g} nl'})"
            for s in partition.constrained
        ) or "none"
        print(f"  p{partition.index}: {len(partition.members)} ops; "
              f"constrained inputs: {constrained}")
    print("compiler diagnostics:")
    for diagnostic in compiled.diagnostics:
        print(f"  {diagnostic}")
    print()

    run_with(Fraction(1, 2), Fraction(1, 2), "generous yields")
    run_with(Fraction(1, 2), Fraction(1, 20), "starved LC separation")

    print("The starved run scales partition 3 down by 10x; push the yield")
    print("much lower and the X2 draw hits the least count — the point at")
    print("which the executor falls back on Biostream-style regeneration.")


if __name__ == "__main__":
    main()
