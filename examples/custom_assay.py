"""Authoring a new assay: a bacterial-growth inhibition screen.

Demonstrates language features beyond the paper's three benchmarks:

* loops with computed ratios (a two-fold antibiotic dilution ladder);
* a YIELD hint making a separation's output statically known (Section
  3.5's programmer hint — the whole assay stays compile-time plannable);
* a dynamic IF on a sensed value (conservatively provisioned, executed
  one-sided);
* CONCENTRATE with a KEEP clause.

Run:  python examples/custom_assay.py
"""

import dataclasses
from fractions import Fraction

from repro.compiler.passes import run_compile
from repro.machine import AQUACORE_SPEC, Machine, SpeciesFilter
from repro.runtime import AssayExecutor

SOURCE = """\
ASSAY inhibition_screen
START
fluid antibiotic, broth, culture, matrix, washbuf;
fluid cells, waste1;
fluid Dilution[4];
VAR i, temp, ladder, Reading[4];

-- Concentrate the cell culture on an affinity column; the YIELD hint
-- (we keep roughly 2 parts in 5) keeps the plan fully static.
SEPARATE culture MATRIX matrix USING washbuf YIELD 2 : 5 FOR 120
    INTO cells AND waste1;

-- Two-fold antibiotic ladder: 1:1, 1:3, 1:7, 1:15 in broth
-- (the same temp-variable idiom as the paper's enzyme assay).
temp = 2;
ladder = 1;
FOR i FROM 1 TO 4 START
Dilution[i] = MIX antibiotic AND broth IN RATIOS 1 : ladder FOR 20;
temp = temp * 2;
ladder = temp - 1;
ENDFOR

-- Challenge equal cell aliquots with each dilution and read growth.
FOR i FROM 1 TO 4 START
MIX Dilution[i] AND cells IN RATIOS 3 : 1 FOR 60;
INCUBATE it AT 37 FOR 600;
SENSE OPTICAL it INTO Reading[i];
ENDFOR

-- If the strongest dose still shows growth, boil down a confirmation
-- aliquot; otherwise just read the control.  The condition depends on a
-- sensed value, so both branches are provisioned and the taken one is
-- decided at run time.
IF Reading[4] > 0 THEN
MIX Dilution[4] AND cells IN RATIOS 3 : 1 FOR 60;
CONCENTRATE it AT 90 FOR 120 KEEP 1 : 2;
SENSE OPTICAL it INTO Reading[1];
ELSE
MIX Dilution[1] AND cells IN RATIOS 3 : 1 FOR 60;
SENSE OPTICAL it INTO Reading[2];
ENDIF
END
"""


def main() -> None:
    print("=== Compile ===")
    compiled = run_compile(source=SOURCE).compiled
    print(f"static plan: {compiled.is_static} "
          "(the YIELD hint removed the unknown volume)")
    print(f"plan status: {compiled.plan.status}")
    for diagnostic in compiled.diagnostics:
        print(f"  {diagnostic}")
    assignment = compiled.assignment
    key, minimum = assignment.min_edge()
    print(f"min dispense: {float(minimum):.2f} nl at {key[0]} -> {key[1]}")

    print("\n=== Ladder volumes ===")
    for i in range(1, 5):
        node = f"Dilution[{i}]"
        volume = assignment.node_volume[node]
        print(f"  {node}: {float(volume):6.2f} nl")

    print("\n=== Program (first 20 instructions) ===")
    for instruction in compiled.program.instructions[:20]:
        print(f"  {instruction.render()}")
    print(f"  ... ({len(compiled.program)} total)")

    print("\n=== Execute ===")
    spec = dataclasses.replace(
        AQUACORE_SPEC,
        extinction_coefficients={"culture": Fraction(3)},
    )
    machine = Machine(
        spec,
        separation_models={
            # the affinity column keeps the cells at 40% recovery on
            # culture solids — consistent with the YIELD 2:5 hint
            "separator1": SpeciesFilter(["culture"], recovery=Fraction(2, 5)),
        },
    )
    result = AssayExecutor(compiled, machine).run()
    print(f"regenerations: {result.regenerations}, "
          f"guarded statements skipped: {result.skipped_guarded}")
    for name, value in sorted(result.results.items()):
        print(f"  {name} = {float(value):.4f}")


if __name__ == "__main__":
    main()
