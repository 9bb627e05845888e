"""The production LP solve against the ``linprog`` reference.

:func:`repro.core.lp.solve_model` must give bit-identical edge volumes,
or raise the same error class, as :mod:`oracles.lp_linprog` on

* every LP model the compile-cold benchmark corpus solves (read from
  ``perfbench/inputs.py``, captured through ``IncrementalLPBuilder.build``
  while the corpus compiles), and the full model of every LP attempt the
  least-volume bound rules out before building (captured through
  ``IncrementalLPBuilder.least_volume_violation``), which both solvers
  must prove infeasible;
* random layered DAGs with separators, under both planning objectives;
* infeasible models.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import lp_linprog
from repro.assays import enzyme, generators
from repro.compiler.passes import run_compile
from repro.core.dag import AssayDAG
from repro.core.errors import InfeasibleError, SolverError
from repro.core.hierarchy import VolumeManager
from repro.core.limits import PAPER_LIMITS, HardwareLimits
from repro.core.lp import solve_model
from repro.core.lpmodel import IncrementalLPBuilder, build_lp_model
from repro.machine.spec import MACHINES

ROOT = pathlib.Path(__file__).resolve().parents[2]
#: the benchmark's default seed; it only picks the random DAGs, which
#: DAGSolve plans without the LP.
CORPUS_SEED = 1


def _load_inputs():
    path = ROOT / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def outcome(solve, model):
    """``("ok", edge volumes)`` or ``("error", error class)``."""
    try:
        volumes = solve(model)
    except (InfeasibleError, SolverError) as error:
        return ("error", type(error))
    return ("ok", volumes)


def production(model) -> dict[tuple[str, str], Fraction]:
    assignment = solve_model(model)
    return {key: assignment.edge_volume[key] for key in model.var_index}


def assert_same(model) -> tuple:
    got = outcome(production, model)
    want = outcome(lp_linprog.solve_model, model)
    assert got == want
    return got


@dataclass
class CorpusLP:
    """What the LP stage did while the compile-cold corpus compiled."""

    #: (entry name, production outcome, reference outcome) per built model.
    built: list[tuple[str, tuple, tuple]] = field(default_factory=list)
    #: (entry name, production outcome, reference outcome) per attempt
    #: the least-volume bound ruled out; its full model is built after the
    #: corpus compiled, from a copy taken when the bound spoke.
    ruled_out: list[tuple[str, tuple, tuple]] = field(default_factory=list)


@pytest.fixture(scope="module")
def corpus_lp():
    inputs = _load_inputs()
    record = CorpusLP()
    build = IncrementalLPBuilder.build
    bound = IncrementalLPBuilder.least_volume_violation
    current = [""]
    pending: list[tuple[str, IncrementalLPBuilder, AssayDAG]] = []

    def capture_build(self, dag):
        model = build(self, dag)
        # solved at once: a later rewrite may edit the DAG the model reads
        record.built.append(
            (
                current[0],
                outcome(production, model),
                outcome(lp_linprog.solve_model, model),
            )
        )
        return model

    def capture_bound(self, dag):
        reason = bound(self, dag)
        if reason is not None:
            # the working DAG is rewritten in place later: keep a copy
            pending.append((current[0], self, dag.copy()))
        return reason

    IncrementalLPBuilder.build = capture_build
    IncrementalLPBuilder.least_volume_violation = capture_bound
    try:
        for entry in inputs.compile_corpus(CORPUS_SEED):
            current[0] = entry.name
            spec = MACHINES[entry.machine]
            run_compile(
                **entry.make(),
                spec=spec,
                manager=VolumeManager(spec.limits, objective=entry.objective),
            )
    finally:
        IncrementalLPBuilder.build = build
        IncrementalLPBuilder.least_volume_violation = bound
    for name, builder, dag in pending:
        model = build_lp_model(
            dag,
            builder.limits,
            output_tolerance=builder.output_tolerance,
            min_volume_bounds=builder.min_volume_bounds,
            objective=builder.objective,
        )
        record.ruled_out.append(
            (
                name,
                outcome(production, model),
                outcome(lp_linprog.solve_model, model),
            )
        )
    return record


class TestCompileCorpus:
    def test_every_corpus_model_solves_alike(self, corpus_lp):
        for name, got, want in corpus_lp.built:
            assert got == want, name

    def test_every_ruled_out_model_is_infeasible(self, corpus_lp):
        """The full model of each attempt the bound turned away is
        infeasible for HiGHS and for ``linprog``."""
        for name, got, want in corpus_lp.ruled_out:
            assert got == want == ("error", InfeasibleError), name

    def test_corpus_exercises_the_lp(self, corpus_lp):
        """18 attempts over 10 entries: 5 built models, all solved, and
        13 ruled out by the bound."""
        attempts = [name for name, __, ___ in corpus_lp.built]
        attempts += [name for name, __, ___ in corpus_lp.ruled_out]
        assert len(attempts) == 18
        assert len(set(attempts)) == 10
        assert [got[0] for __, got, ___ in corpus_lp.built] == ["ok"] * 5
        assert len(corpus_lp.ruled_out) == 13

    def test_enzyme_n6_builds_no_lp_model(self, corpus_lp):
        built = [name for name, __, ___ in corpus_lp.built]
        ruled_out = [name for name, __, ___ in corpus_lp.ruled_out]
        assert "enzyme-n6" not in built
        assert ruled_out.count("enzyme-n6") == 2


class TestRandomModels:
    @given(
        seed=st.integers(0, 10_000),
        shape=st.tuples(
            st.integers(2, 4), st.integers(1, 4), st.integers(1, 4)
        ),
        separators=st.sampled_from([0.0, 0.3]),
        objective=st.sampled_from(["default", "waste"]),
    )
    # degenerate: every plan on the waste objective's zero-waste face is
    # optimal, and HiGHS picks its vertex by its output flag too
    @example(seed=3171, shape=(3, 1, 4), separators=0.0, objective="waste")
    @example(seed=103, shape=(3, 1, 4), separators=0.0, objective="waste")
    @settings(max_examples=60, deadline=None)
    def test_layered_dags_solve_alike(
        self, seed, shape, separators, objective
    ):
        dag = generators.layered_random_dag(
            *shape,
            seed=seed,
            max_ratio=30,
            separator_probability=separators,
        )
        assert_same(build_lp_model(dag, PAPER_LIMITS, objective=objective))


class TestInfeasibleModels:
    def test_extreme_ratio(self):
        """The introduction's 1:399 mix on max 100 / least count 1."""
        dag = AssayDAG()
        dag.add_input("A")
        dag.add_input("B")
        dag.add_mix("M", {"A": 1, "B": 399})
        limits = HardwareLimits(
            max_capacity=Fraction(100), least_count=Fraction(1)
        )
        model = build_lp_model(dag, limits)
        assert assert_same(model) == ("error", InfeasibleError)

    def test_raw_enzyme(self):
        model = build_lp_model(enzyme.build_dag(), PAPER_LIMITS)
        assert assert_same(model) == ("error", InfeasibleError)
