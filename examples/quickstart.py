"""Quickstart: volume management on the paper's running example (Figure 2).

Builds the four-mix assay, runs DAGSolve, prints the Vnorms and dispensed
volumes of paper Figure 5, then compiles the assay all the way to AquaCore
instructions.

Run:  python examples/quickstart.py
"""

from repro import PAPER_LIMITS, dagsolve
from repro.compiler.passes import run_compile
from repro.assays import paper_example


def main() -> None:
    print("=== The assay (paper Figure 2) ===")
    print(paper_example.SOURCE)

    dag = paper_example.build_dag()
    print(f"DAG: {dag.node_count} nodes, {dag.edge_count} edges")
    print(f"inputs:  {[n.id for n in dag.inputs()]}")
    print(f"outputs: {[n.id for n in dag.outputs()]}")

    print("\n=== DAGSolve backward pass: Vnorms (Figure 5a) ===")
    assignment = dagsolve(dag, PAPER_LIMITS)
    vnorms = assignment.vnorms.node_vnorm
    for node_id in sorted(vnorms):
        print(f"  Vnorm({node_id}) = {vnorms[node_id]}  "
              f"(~{float(vnorms[node_id]):.3f})")

    print("\n=== Dispensing pass: absolute volumes (Figure 5b) ===")
    print(f"  machine: max {float(PAPER_LIMITS.max_capacity):g} nl, "
          f"least count {float(PAPER_LIMITS.least_count):g} nl")
    for node_id, volume in sorted(assignment.node_volume.items()):
        print(f"  {node_id}: {float(volume):6.1f} nl")
    key, minimum = assignment.min_edge()
    print(f"  smallest transfer: {key[0]} -> {key[1]} at "
          f"{float(minimum):.1f} nl")
    print(f"  feasible: {assignment.feasible}")

    print("\n=== Compiled AquaCore program ===")
    compiled = run_compile(source=paper_example.SOURCE).compiled
    print(compiled.listing())
    print(f"\nplan status: {compiled.plan.status}; "
          f"diagnostics: {len(compiled.diagnostics)}")


if __name__ == "__main__":
    main()
