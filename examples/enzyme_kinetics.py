"""Enzyme-kinetics assay (paper Figure 11): the hard volume-management case.

Walks the Figure 14 narrative — the 1:999 dilutions underflow at 9.8 pl,
cascading and static replication repair the plan — then compiles the assay
through the automatic hierarchy and executes the 64-combination screen on
the simulator.

Run:  python examples/enzyme_kinetics.py
"""

from fractions import Fraction

from repro import PAPER_LIMITS, dagsolve
from repro.assays import enzyme
from repro.compiler.passes import run_compile
from repro.core.cascading import cascade_mix, stage_factors
from repro.core.dagsolve import compute_vnorms
from repro.core.replication import replicate_node
from repro.machine import AQUACORE_SPEC, Machine
from repro.runtime import AssayExecutor


def pl(volume) -> str:
    return f"{float(volume) * 1000:.1f} pl"


def main() -> None:
    print("=== Step 1: the raw plan underflows (paper Figure 14a) ===")
    dag = enzyme.build_dag()
    raw = dagsolve(dag, PAPER_LIMITS)
    key, minimum = raw.min_edge()
    print(f"diluent Vnorm: {float(raw.vnorms.node_vnorm['diluent']):.1f} "
          "(the binding fluid)")
    print(f"dilution volume: "
          f"{float(raw.node_volume['enzyme.dil1']):.1f} nl each")
    print(f"minimum dispense: {pl(minimum)} at {key[0]} -> {key[1]} "
          f"(least count is {pl(PAPER_LIMITS.least_count)}) -> UNDERFLOW")

    print("\n=== Step 2: cascade the 1:999 mixes into three 1:9 stages ===")
    cascaded = dag
    for reagent in enzyme.REAGENTS:
        cascaded, report = cascade_mix(
            cascaded, f"{reagent}.dil4", stage_factors(Fraction(1000), 3)
        )
        print(f"  {report}")
    after_cascade = dagsolve(cascaded, PAPER_LIMITS)
    key, minimum = after_cascade.min_edge()
    print(f"diluent uses: 12 -> {cascaded.out_degree('diluent')}, "
          f"Vnorm -> {float(after_cascade.vnorms.node_vnorm['diluent']):.1f}")
    print(f"new minimum: {pl(minimum)} at the 1:99 mixes -> still underflow")

    print("\n=== Step 3: replicate the diluent three ways ===")
    vnorms = compute_vnorms(cascaded)
    weights = {
        e.key: vnorms.edge_vnorm[e.key]
        for e in cascaded.out_edges("diluent")
    }
    final_dag, report = replicate_node(
        cascaded, "diluent", 3, weights=weights
    )
    print(f"  {report}: each replica serves "
          f"{len(report.distribution[0])} uses")
    final = dagsolve(final_dag, PAPER_LIMITS)
    key, minimum = final.min_edge()
    print(f"replica Vnorm: {float(final.vnorms.node_vnorm['diluent']):.1f}")
    print(f"final minimum: {pl(minimum)} -> FEASIBLE: {final.feasible}")

    print("\n=== Automatic compilation (the Figure 6 hierarchy) ===")
    compiled = run_compile(source=enzyme.SOURCE).compiled
    print(f"plan status: {compiled.plan.status}")
    for note in compiled.diagnostics:
        print(f"  {note}")
    print(f"{len(compiled.program)} AIS instructions; "
          f"peak reservoirs {compiled.program.meta['allocation_peak']}")

    print("\n=== Execute the 4x4x4 screen on the simulator ===")
    result = AssayExecutor(compiled, Machine(AQUACORE_SPEC)).run()
    print(f"wet instructions: {result.trace.wet_instruction_count}, "
          f"regenerations: {result.regenerations}, "
          f"readings collected: {len(result.results)}")


if __name__ == "__main__":
    main()
