"""Grammar-directed fuzzing of the whole front end.

Random syntactically-valid assays are generated from the language grammar;
every one must tokenise, parse, analyse, unroll, lower to a valid DAG, and
(when small enough) compile and execute without internal errors — the
accepted-programs-never-crash property.
"""

import dataclasses
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.passes import run_compile
from repro.ir.builder import build_dag_from_flat
from repro.lang.parser import parse
from repro.lang.unroll import unroll
from repro.machine.interpreter import Machine
from repro.machine.spec import AQUACORE_XL_SPEC
from repro.runtime.executor import AssayExecutor


def generate_source(seed: int) -> str:
    """A random valid assay: declarations, dilution loops, mixes, heats,
    senses — shaped like real protocols, sized to stay fast."""
    rng = random.Random(seed)
    n_inputs = rng.randint(2, 4)
    inputs = [f"in{i}" for i in range(n_inputs)]
    lines = [
        "ASSAY fuzz",
        "START",
        f"fluid {', '.join(inputs)};",
        "fluid work[4];",
        "VAR i, r, Reading[6];",
    ]
    n_cells = rng.randint(1, 4)
    for index in range(1, n_cells + 1):
        a, b = rng.sample(inputs, 2)
        p, q = rng.randint(1, 9), rng.randint(1, 9)
        lines.append(
            f"work[{index}] = MIX {a} AND {b} IN RATIOS {p} : {q} "
            f"FOR {rng.randint(5, 30)};"
        )
        follow = rng.random()
        if follow < 0.3:
            lines.append(
                f"INCUBATE it AT {rng.randint(20, 95)} "
                f"FOR {rng.randint(10, 60)};"
            )
        elif follow < 0.4:
            lines.append(
                f"CONCENTRATE it AT 90 FOR 30 KEEP 1 : {rng.randint(2, 4)};"
            )
        if rng.random() < 0.7:
            lines.append(f"SENSE OPTICAL it INTO Reading[{index}];")
    if rng.random() < 0.5 and n_cells >= 2:
        lines.append("FOR i FROM 1 TO 2 START")
        other = rng.choice(inputs)
        lines.append(
            f"MIX work[i] AND {other} IN RATIOS i : 2 FOR 10;"
        )
        lines.append("SENSE OPTICAL it INTO Reading[i + 4];")
        lines.append("ENDFOR")
    lines.append("END")
    return "\n".join(lines) + "\n"


class TestAcceptedProgramsNeverCrash:
    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=60, deadline=None)
    def test_front_end_pipeline(self, seed):
        source = generate_source(seed)
        flat = unroll(parse(source))
        dag = build_dag_from_flat(flat)
        dag.validate()
        assert dag.node_count >= 3

    @given(seed=st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=15, deadline=None)
    def test_compile_and_execute(self, seed):
        source = generate_source(seed)
        compiled = run_compile(source=source, spec=AQUACORE_XL_SPEC).compiled
        if compiled.plan is not None and not compiled.plan.feasible:
            return  # regeneration plans may legitimately fail to execute
        machine = Machine(AQUACORE_XL_SPEC)
        result = AssayExecutor(compiled, machine).run()
        assert result.regenerations == 0

    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=30, deadline=None)
    def test_unroll_is_deterministic(self, seed):
        source = generate_source(seed)
        first = unroll(parse(source))
        second = unroll(parse(source))
        assert [s.target for s in first.statements] == [
            s.target for s in second.statements
        ]
        assert first.input_fluids == second.input_fluids
