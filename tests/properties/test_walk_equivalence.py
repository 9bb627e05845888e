"""Property-based equivalence: the occupancy walk against its oracle.

Lint, races and certify read one abstract occupancy walk
(:class:`repro.analysis.dataflow.ForwardAnalysis`).
:mod:`oracles.walk` is that walk as it was before it decoded each
instruction once.  Over

* random listings over every location of the machine (ports, unit
  sub-ports, unknown names and a sub-port no unit has included), with
  guarded instructions (``meta["guard"]``), ``move-abs`` volumes on and
  off the least-count grid, sensors, concentrates with and without a
  ``keep_fraction``, and random ``initial`` seeds;
* compiled :func:`~repro.assays.generators.layered_random_dag` listings
  (with separators), some instructions guarded and some reservoirs
  seeded;
* the corpus on both machines, with the seeds certify gives a
  partitioned plan's constrained inputs,

both walks must report the same accesses (place, kind, ``before``,
``moved``, ``guarded``, volumes of the same numeric type), the same value
flow, the same final location order, and the same pre-state at every
``observe`` call.  On the same listings, over the bus and ring
topologies and one with an island and a route through a reservoir, the
certifier's route check must report what :class:`oracles.walk.Routes`
reports on the oracle walk.
"""

from __future__ import annotations

import importlib.util
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.certify.schedule import _Routes
from repro.analysis.dataflow import SEPARATOR_SUBPORTS, ForwardAnalysis
from repro.analysis.state import AbsContent, ContentKind, VolumeInterval
from repro.assays import generators
from repro.compiler.codegen import CodegenError
from repro.compiler.passes import run_compile
from repro.core.errors import VolumeError
from repro.ir.instructions import Instruction, Opcode, Operand
from repro.ir.program import AISProgram
from repro.machine.spec import MACHINES
from repro.machine.topology import ChannelTopology, bus_topology, ring_topology

from oracles import walk as oracle

ROOT = pathlib.Path(__file__).resolve().parents[2]
MACHINE_NAMES = ("aquacore", "aquacore-xl")


def _corpus_entries() -> list[tuple[str, dict]]:
    path = ROOT / "tools" / "corpus.py"
    spec = importlib.util.spec_from_file_location("corpus_harness", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.corpus_entries()


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------
def _facts(walk_class, program, spec, initial):
    observed: list[tuple[int, list]] = []

    def observe(index, state):
        observed.append((index, list(state.items())))

    walk = walk_class(program, spec, initial=initial, observe=observe)
    return walk, observed


def _volume_types(interval):
    if interval is None:
        return None
    return type(interval.lo), type(interval.hi)


def _content_types(content):
    return content.kind, _volume_types(content.volume), type(content.defs)


def assert_same_walk(program, spec, initial=None):
    got, got_observed = _facts(ForwardAnalysis, program, spec, initial)
    want, want_observed = _facts(oracle.ForwardAnalysis, program, spec, initial)
    assert len(got.accesses) == len(want.accesses)
    for position, (a, b) in enumerate(zip(got.accesses, want.accesses)):
        where = f"access {position}: {b}"
        assert a == b, where
        assert tuple(a.place) == tuple(b.place), where
        assert a.kind is b.kind, where
        assert _content_types(a.before) == _content_types(b.before), where
        assert _volume_types(a.moved) == _volume_types(b.moved), where
    assert list(got.flow.producers.items()) == list(want.flow.producers.items())
    assert list(got.flow.edges.items()) == list(want.flow.edges.items())
    assert got.flow.product_sinks == want.flow.product_sinks
    assert got.flow.waste_sinks == want.flow.waste_sinks
    assert list(got.state.items()) == list(want.state.items())
    assert [
        [(location, _content_types(content)) for location, content in items]
        for __, items in got_observed
    ] == [
        [(location, _content_types(content)) for location, content in items]
        for __, items in want_observed
    ]
    assert got_observed == want_observed
    assert [index for index, __ in got_observed] == list(range(len(program)))
    for topology in _topologies(spec):
        assert_same_routes(program, spec, topology, initial)


def _sparse(spec) -> ChannelTopology:
    """ip1 reaches mixer1 only through s1; heater1 is an island."""
    topology = ChannelTopology("sparse")
    topology.add_channel("ip1", "s1")
    topology.add_channel("s1", "mixer1")
    topology.add_channel("mixer1", "op1")
    topology.add_location("heater1")
    return topology


def _topologies(spec) -> list[ChannelTopology]:
    return [bus_topology(spec), ring_topology(spec), _sparse(spec)]


def assert_same_routes(program, spec, topology, initial):
    routes = _Routes(program, spec, topology)
    ForwardAnalysis(
        program,
        spec,
        initial=initial,
        observe=routes.observe if routes.watch else None,
    )
    reference = oracle.Routes(program, spec, topology)
    oracle.ForwardAnalysis(program, spec, initial=initial, observe=reference.observe)
    assert routes.through == reference.through
    assert [
        (d.code, d.message, d.instruction, d.operand) for d in routes.unroutable
    ] == [
        (d.code, d.message, d.instruction, d.operand)
        for d in reference.unroutable
    ]


# ---------------------------------------------------------------------------
# random listings over every location of the machine
# ---------------------------------------------------------------------------
def _locations(spec) -> list[str]:
    names = list(spec.reservoir_names())
    names += spec.input_port_names() + spec.output_port_names()
    for unit in spec.functional_units:
        names.append(unit.name)
        if unit.kind == "separator":
            names += [f"{unit.name}.{sub}" for sub in SEPARATOR_SUBPORTS]
    names += ["nowhere", "mixer1.out1"]
    return names


#: volumes on and off the 0.1 nl least-count grid, and zero.
VOLUMES = st.sampled_from(
    [Fraction(0), Fraction(1, 10), Fraction(1, 20), Fraction(1, 3),
     Fraction(5), Fraction(50), Fraction(150)]
)


@st.composite
def instructions(draw, spec):
    place = st.sampled_from(_locations(spec)).map(Operand.parse)
    opcode = draw(st.sampled_from([op for op in Opcode]))
    meta: dict[str, object] = {}
    if draw(st.booleans()) and draw(st.booleans()):
        meta["guard"] = "g"
    if draw(st.booleans()):
        meta["node"] = draw(st.sampled_from(["a", "b"]))
    fields: dict[str, object] = {"meta": meta}
    if draw(st.booleans()):
        fields["comment"] = draw(st.sampled_from(["A", "discard spent x"]))
    if opcode in (Opcode.INPUT, Opcode.OUTPUT, Opcode.MOVE, Opcode.MOVE_ABS):
        fields["dst"], fields["src"] = draw(place), draw(place)
        if opcode is Opcode.MOVE_ABS or draw(st.booleans()):
            fields["abs_volume"] = draw(VOLUMES)
        if opcode is Opcode.MOVE:
            if draw(st.booleans()):
                fields["rel_volume"] = Fraction(draw(st.integers(1, 5)))
            if draw(st.booleans()):
                fields["edge"] = ("a", "b")
        if opcode is Opcode.OUTPUT and draw(st.booleans()):
            meta[draw(st.sampled_from(["discard", "excess", "residue"]))] = "x"
    elif opcode.is_wet:
        fields["dst"] = draw(place)
        fields["duration"] = Fraction(10)
        fields["temperature"] = Fraction(37)
        fields["mode"] = draw(st.sampled_from(["AF", "CE", "OD", "FL"]))
        fields["result"] = "r"
        if opcode is Opcode.CONCENTRATE and draw(st.booleans()):
            meta["keep_fraction"] = draw(
                st.sampled_from([Fraction(1, 2), Fraction(1, 3), "2/5"])
            )
    else:
        fields["reg"], fields["value"] = "r1", 1
    return Instruction(opcode, **fields)


@st.composite
def contents(draw):
    kind = draw(st.sampled_from(list(ContentKind)))
    lo = draw(st.sampled_from([0, 1, 7, Fraction(1, 2)]))
    hi = draw(st.sampled_from([None, lo, lo + 3, 2000]))
    defs = frozenset(draw(st.sets(st.integers(-3, -1), max_size=2)))
    return AbsContent(kind, VolumeInterval(lo, hi), defs, draw(st.booleans()))


@st.composite
def listings(draw):
    spec = MACHINES[draw(st.sampled_from(MACHINE_NAMES))]
    program = AISProgram("random", machine=spec.name)
    program.instructions = draw(st.lists(instructions(spec), max_size=40))
    initial = draw(
        st.none()
        | st.dictionaries(st.sampled_from(_locations(spec)), contents(), max_size=4)
    )
    return program, spec, initial


@given(case=listings())
@settings(max_examples=300, deadline=None)
def test_random_listings_walk_alike(case):
    assert_same_walk(*case)


@pytest.mark.parametrize("guard", [None, "g"])
@pytest.mark.parametrize("machine", MACHINE_NAMES)
def test_every_location_seeded(machine, guard):
    """Every location, ports and invalid sub-ports included, starts out
    holding fluid (every other one a product), and every wet opcode reads
    or writes each of them."""
    spec = MACHINES[machine]
    locations = [Operand.parse(name) for name in _locations(spec)]
    program = AISProgram("seeded", machine=spec.name)
    meta = {} if guard is None else {"guard": guard}
    for place in locations:
        program.instructions += [
            Instruction(Opcode.MOVE, dst=place, src=Operand("s2"),
                        rel_volume=Fraction(1), meta=dict(meta)),
            Instruction(Opcode.OUTPUT, dst=Operand("op1"), src=place, meta=dict(meta)),
            Instruction(Opcode.MOVE, dst=place, src=Operand("s1"), meta=dict(meta)),
            Instruction(Opcode.MOVE, dst=Operand("mixer1"), src=place,
                        edge=("a", "b"), meta=dict(meta)),
            Instruction(Opcode.INPUT, dst=place, src=Operand("ip1"), meta=dict(meta)),
            Instruction(Opcode.MIX, dst=place, duration=Fraction(1), meta=dict(meta)),
            Instruction(Opcode.SEPARATE, dst=place, mode="AF",
                        duration=Fraction(1), meta=dict(meta)),
            Instruction(Opcode.SENSE, dst=place, mode="OD", result="r",
                        meta=dict(meta)),
        ]
    seeds = {
        str(place): AbsContent(
            ContentKind.HOLDS, VolumeInterval(1, 5), frozenset({-1}), k % 2 == 0
        )
        for k, place in enumerate(locations)
    }
    assert_same_walk(program, spec, seeds)


# ---------------------------------------------------------------------------
# compiled listings
# ---------------------------------------------------------------------------
def _seeds(spec, locations) -> dict[str, AbsContent]:
    """Certify's seeds: each constrained input's reservoir holds one
    finished fluid of unknown volume, def site ``-1 - k``."""
    return {
        location: AbsContent.holding(
            VolumeInterval(), frozenset({-1 - k}), product=True
        )
        for k, location in enumerate(locations)
    }


@given(
    seed=st.integers(0, 5000),
    shape=st.tuples(st.integers(2, 5), st.integers(1, 3), st.integers(1, 3)),
    separators=st.sampled_from([0.0, 0.4]),
    machine=st.sampled_from(MACHINE_NAMES),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_compiled_random_dags_walk_alike(seed, shape, separators, machine, data):
    spec = MACHINES[machine]
    dag = generators.layered_random_dag(
        *shape, seed=seed, max_ratio=9, separator_probability=separators
    )
    try:
        program = run_compile(dag=dag, spec=spec).compiled.program
    except (CodegenError, VolumeError):
        return
    assert_same_walk(program, spec)
    indices = range(len(program))
    for index in data.draw(st.sets(st.sampled_from(indices)) if indices else st.just(set())):
        program.instructions[index].meta["guard"] = "g"
    seeded = data.draw(st.sets(st.sampled_from(spec.reservoir_names()), max_size=3))
    assert_same_walk(program, spec, _seeds(spec, sorted(seeded)) or None)


def _constrained_reservoirs(compiled) -> list[str]:
    from repro.core.dag import NodeKind

    if compiled.allocation is None or compiled.final_dag is None:
        return []
    return [
        compiled.allocation.reservoir_of[node.id]
        for node in compiled.final_dag.nodes()
        if node.kind is NodeKind.CONSTRAINED_INPUT
        and node.id in compiled.allocation.reservoir_of
    ]


ENTRIES = dict(_corpus_entries())


@pytest.mark.parametrize("machine", MACHINE_NAMES)
@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_corpus_walks_alike(machine, name):
    spec = MACHINES[machine]
    compiled = run_compile(spec=spec, **ENTRIES[name]).compiled
    assert_same_walk(
        compiled.program,
        spec,
        _seeds(spec, _constrained_reservoirs(compiled)) or None,
    )
