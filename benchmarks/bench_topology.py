"""Channel-layout ablation (Figure 1's interconnect, made concrete).

The paper's AquaCore connects components "by a set of channels" with a
pump at each end; transfer time therefore depends on the layout.  This
benchmark runs the same compiled glucose assay over three interconnects —
the abstract constant-time model, a shared bus, and a ring — and reports
the simulated fluid-path time of each.
"""

import _report
import pytest

from repro.compiler.passes import run_compile
from repro.machine.interpreter import Machine
from repro.machine.spec import AQUACORE_SPEC
from repro.machine.topology import bus_topology, ring_topology
from repro.runtime.executor import AssayExecutor
from repro.assays import glucose


def run_on(topology):
    compiled = run_compile(source=glucose.SOURCE).compiled
    machine = Machine(AQUACORE_SPEC, topology=topology)
    return AssayExecutor(compiled, machine).run()


def test_layout_sweep(benchmark):
    def sweep():
        return {
            "abstract (paper model)": run_on(None).trace.total_seconds,
            "shared bus": run_on(bus_topology(AQUACORE_SPEC)).trace.total_seconds,
            "ring": run_on(ring_topology(AQUACORE_SPEC)).trace.total_seconds,
        }

    rows = benchmark(sweep)
    for layout, seconds in rows.items():
        _report.record(
            "fig1 channel-layout ablation (glucose)",
            layout,
            "transfer time scales with hops",
            f"{float(seconds):.0f} s fluid-path time",
        )
    assert rows["shared bus"] > rows["abstract (paper model)"]
    # the ring's distances depend on placement; with the default ordering
    # the reservoirs sit far from the units, so it is the slowest
    assert rows["ring"] >= rows["shared bus"]


def test_bus_serialisation_rationale(benchmark):
    """Why the wet path is serial: on the bus, every transfer conflicts
    with every other through the backbone."""
    topology = bus_topology(AQUACORE_SPEC)

    def count_conflicts():
        pairs = [
            (("s1", "mixer1"), ("s2", "heater1")),
            (("ip1", "s1"), ("s3", "sensor2")),
            (("mixer1", "sensor2"), ("s5", "separator1")),
        ]
        return sum(topology.conflicts(a, b) for a, b in pairs), len(pairs)

    conflicting, total = benchmark(count_conflicts)
    _report.record(
        "fig1 channel-layout ablation (glucose)",
        "bus transfer pairs in conflict",
        "all (serial wet path)",
        f"{conflicting}/{total}",
    )
    assert conflicting == total
