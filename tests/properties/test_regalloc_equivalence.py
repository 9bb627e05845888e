"""Property-based equivalence: the reservoir allocator against its oracle.

:mod:`oracles.regalloc` is the linear-scan allocator that rescans every
live reservoir at each DAG node.  Over random layered DAGs (with
separators; in codegen's execution order, a random topological order,
or any order, which the allocator does not check), with and without
storage-less operands and auxiliary loads, on the default machine and
on machines with few reservoirs or ports (so reservoirs are reused and
allocation can fail), and over the corpus's final DAGs, the production
allocator must give the same assignment, every table in the same
order, or fail with the same message.
"""

from __future__ import annotations

import importlib.util
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assays import generators
from repro.compiler.codegen import execution_order
from repro.compiler.passes import run_compile
from repro.ir.regalloc import AllocationError, ReservoirAllocator
from repro.machine.spec import AQUACORE_SPEC, MACHINES, MachineSpec

from oracles import regalloc as oracle

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _spec(reservoirs: int, ports: int) -> MachineSpec:
    return MachineSpec(
        name=f"r{reservoirs}p{ports}",
        limits=AQUACORE_SPEC.limits,
        n_reservoirs=reservoirs,
        n_input_ports=ports,
        n_output_ports=2,
        functional_units=AQUACORE_SPEC.functional_units,
    )


#: the default machine, and smaller ones on which reservoirs are reused
#: (10 and 12 reservoirs: fluids freed at one node are taken again
#: later, so the order they are freed in shows) or run out (4 and 6;
#: 3 ports runs out of ports).
SPECS = [AQUACORE_SPEC, _spec(12, 16), _spec(10, 16), _spec(6, 8), _spec(4, 3)]


def _outcome(allocator_class, spec, dag, order, aux, storage_less):
    try:
        result = allocator_class(spec).allocate(
            dag, order, aux_fluids=aux, storage_less=storage_less
        )
    except AllocationError as error:
        return ("error", str(error))
    return (
        list(result.reservoir_of.items()),
        list(result.port_of.items()),
        list(result.aux.items()),
        sorted(result.storage_less),
        result.peak_usage,
    )


def assert_same_allocation(spec, dag, order, aux=(), storage_less=True):
    assert _outcome(
        ReservoirAllocator, spec, dag, order, aux, storage_less
    ) == _outcome(oracle.ReservoirAllocator, spec, dag, order, aux, storage_less)


def _random_order(dag, seed: int) -> list[str]:
    """A random topological order of ``dag``."""
    rng = random.Random(seed)
    indegree = {node.id: dag.in_degree(node.id) for node in dag.nodes()}
    ready = sorted(node for node, degree in indegree.items() if degree == 0)
    order: list[str] = []
    while ready:
        node = ready.pop(rng.randrange(len(ready)))
        order.append(node)
        for successor in dag.successors(node):
            indegree[successor] -= 1
            if indegree[successor] == 0:
                ready.append(successor)
    return order


@given(
    seed=st.integers(0, 5000),
    shape=st.tuples(st.integers(2, 6), st.integers(1, 4), st.integers(1, 4)),
    separators=st.sampled_from([0.0, 0.4]),
    spec=st.sampled_from(SPECS),
    ordering=st.sampled_from(["codegen", "topological", "any"]),
    storage_less=st.booleans(),
    aux=st.sampled_from([(), ("matrix",), ("matrix", "pusher")]),
)
@settings(max_examples=200, deadline=None)
def test_random_dags_allocate_alike(
    seed, shape, separators, spec, ordering, storage_less, aux
):
    dag = generators.layered_random_dag(
        *shape, seed=seed, max_ratio=9, separator_probability=separators
    )
    if ordering == "codegen":
        order = execution_order(dag)
    elif ordering == "topological":
        order = _random_order(dag, seed)
    else:  # the allocator does not check the order it is given
        order = [node.id for node in dag.nodes()]
        random.Random(seed).shuffle(order)
    assert_same_allocation(spec, dag, order, aux, storage_less)


@pytest.mark.parametrize("storage_less", [True, False])
@pytest.mark.parametrize("reservoirs", [10, 12])
def test_freed_reservoirs_are_taken_again_in_order(reservoirs, storage_less):
    """Fixed DAGs on which fluids freed at one node are taken again
    later, so the order they are freed in decides the assignment."""
    spec = _spec(reservoirs, 16)
    for seed in range(40):
        dag = generators.layered_random_dag(4, 4, 4, seed=seed, max_ratio=9)
        assert_same_allocation(
            spec, dag, execution_order(dag), storage_less=storage_less
        )


def _corpus_entries() -> list[tuple[str, dict]]:
    path = ROOT / "tools" / "corpus.py"
    spec = importlib.util.spec_from_file_location("corpus_harness", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.corpus_entries()


ENTRIES = dict(_corpus_entries())


@pytest.mark.parametrize("machine", sorted(MACHINES))
@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_corpus_dags_allocate_alike(machine, name):
    compiled = run_compile(spec=MACHINES[machine], **ENTRIES[name]).compiled
    dag = compiled.final_dag
    for spec in (MACHINES[machine], *SPECS[1:]):
        assert_same_allocation(spec, dag, execution_order(dag))
