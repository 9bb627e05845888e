"""Code-generation tests: instruction shapes of paper Figures 9b-11b."""

from fractions import Fraction

import pytest

from repro.compiler.codegen import CodegenError, execution_order, generate
from repro.core.dag import AssayDAG
from repro.ir.instructions import Opcode
from repro.machine.spec import AQUACORE_SPEC
from repro.assays import glucose, paper_example


class TestExecutionOrder:
    def test_topological(self, enzyme_dag):
        order = execution_order(enzyme_dag)
        position = {n: i for i, n in enumerate(order)}
        for edge in enzyme_dag.edges():
            assert position[edge.src] < position[edge.dst]

    def test_sequence_stable_for_compiled_dags(self):
        from repro.ir.builder import build_dag_from_flat
        from repro.lang.parser import parse
        from repro.lang.unroll import unroll

        dag = build_dag_from_flat(unroll(parse(glucose.SOURCE)))
        order = execution_order(dag)
        mixes = [n for n in order if n in "abcde"]
        assert mixes == ["a", "b", "c", "d", "e"]  # program order kept


class TestGlucoseListing:
    """The structure of paper Figure 9(b)."""

    @pytest.fixture
    def program(self):
        from repro.compiler.passes import run_compile

        return run_compile(source=glucose.SOURCE).compiled.program

    def test_inputs_first(self, program):
        first_three = [i.opcode for i in program.instructions[:3]]
        assert first_three == [Opcode.INPUT] * 3

    def test_move_prints_ratio_parts(self, program):
        listing = program.render()
        assert "move mixer1, s2, 8" in listing  # the 1:8 mix's reagent move
        assert "move mixer1, s1, 1" in listing

    def test_each_mix_pattern(self, program):
        """move, move, mix, move-to-sensor, sense — five times."""
        ops = [i.opcode for i in program.instructions if i.opcode is not Opcode.INPUT]
        expected_block = [
            Opcode.MOVE,
            Opcode.MOVE,
            Opcode.MIX,
            Opcode.MOVE,
            Opcode.SENSE,
        ]
        assert ops == expected_block * 5

    def test_sense_targets(self, program):
        senses = [i for i in program.instructions if i.opcode is Opcode.SENSE]
        assert [s.result for s in senses] == [
            f"Result[{i}]" for i in range(1, 6)
        ]

    def test_edge_provenance_complete(self, program):
        """Every ratio-bearing move maps to a DAG edge."""
        moves = [
            i
            for i in program.instructions
            if i.opcode is Opcode.MOVE and i.rel_volume is not None
        ]
        assert all(m.edge is not None for m in moves)
        assert len(moves) == 10  # two per mix


class TestFigure2Codegen:
    def test_parked_intermediates_move_to_reservoirs(self, fig2_dag):
        program, allocation = generate(fig2_dag, AQUACORE_SPEC)
        assert "K" in allocation.reservoir_of
        park_moves = [
            i for i in program.instructions if i.meta.get("park") == "K"
        ]
        assert len(park_moves) == 1

    def test_mix_consumes_parked_fluid_by_edge(self, fig2_dag):
        program, __ = generate(fig2_dag, AQUACORE_SPEC)
        moves = program.moves_for_edge(("K", "M"))
        assert len(moves) == 1

    def test_two_mixers_used_for_adjacent_outputs(self, fig2_dag):
        program, __ = generate(fig2_dag, AQUACORE_SPEC)
        mix_units = {
            str(i.dst) for i in program.instructions if i.opcode is Opcode.MIX
        }
        assert mix_units == {"mixer1", "mixer2"}


class TestCascadeCodegen:
    def test_excess_discarded_through_output(self, limits):
        from repro.core.cascading import cascade_mix, stage_factors

        dag = AssayDAG("skew")
        dag.add_input("A")
        dag.add_input("B")
        dag.add_mix("M", {"A": 1, "B": 99})
        cascaded, __ = cascade_mix(dag, "M", stage_factors(Fraction(100), 2))
        program, __ = generate(cascaded, AQUACORE_SPEC)
        discards = [
            i for i in program.instructions if i.opcode is Opcode.OUTPUT
        ]
        assert len(discards) == 1
        assert discards[0].meta.get("excess") == "M.cascade1"
        assert "excess" in discards[0].comment

    def test_cascade_stages_alternate_mixers(self, limits):
        from repro.core.cascading import cascade_mix, stage_factors

        dag = AssayDAG("skew")
        dag.add_input("A")
        dag.add_input("B")
        dag.add_mix("M", {"A": 1, "B": 999})
        cascaded, __ = cascade_mix(
            dag, "M", stage_factors(Fraction(1000), 3)
        )
        program, __ = generate(cascaded, AQUACORE_SPEC)
        mix_units = [
            str(i.dst) for i in program.instructions if i.opcode is Opcode.MIX
        ]
        # consecutive cascade stages cannot share a mixer
        for first, second in zip(mix_units, mix_units[1:]):
            assert first != second


class TestSeparatorCodegen:
    def test_matrix_and_pusher_loaded(self):
        from repro.compiler.passes import run_compile
        from repro.assays import glycomics

        program = run_compile(source=glycomics.SOURCE).compiled.program
        listing = program.render()
        assert "move separator1.matrix, s" in listing
        assert "move separator1.pusher, s" in listing
        assert "separate.AF separator1, 30" in listing
        assert "separate.LC separator2, 2400" in listing

    def test_refill_before_reuse(self):
        from repro.compiler.passes import run_compile
        from repro.assays import glycomics

        program = run_compile(source=glycomics.SOURCE).compiled.program
        refills = [
            i
            for i in program.instructions
            if i.opcode is Opcode.INPUT and "refill" in (i.comment or "")
        ]
        # C_18 and buffer3b are used by two LC separations each.
        assert len(refills) == 2

    def test_effluent_consumed_from_out1(self):
        from repro.compiler.passes import run_compile
        from repro.assays import glycomics

        listing = run_compile(source=glycomics.SOURCE).compiled.program.render()
        assert "separator2.out1" in listing


class TestSeparationOfOwnEffluent:
    """A separation fed by its own unit's unparked effluent (``n2_0``
    separates ``n1_1``, which ``separator1`` just produced) moves the feed
    into the chamber before the outlet is cleared; clearing first would
    flush the feed, so codegen used to refuse the DAG."""

    @staticmethod
    def dag(seed):
        from repro.assays import generators

        return generators.layered_random_dag(
            5, 3, 2, seed=seed, max_ratio=99, separator_probability=0.4
        )

    def test_compiles_certifies_and_runs(self):
        from repro.compiler.passes import run_compile
        from repro.runtime.executor import AssayExecutor

        ctx = run_compile(dag=self.dag(28), certify=True)
        codes = [d.code for d in ctx.diagnostics]
        assert not [c for c in codes if c.startswith("SCHED-")], codes
        listing = ctx.compiled.program.render()
        feed = "  move separator1, separator1.out1\n"
        assert feed in listing
        assert listing.index(feed) < listing.index(
            "output op4, separator1.out1 ;discard residue of n1_1"
        )
        result = AssayExecutor(ctx.compiled).run()
        assert result.succeeded
        assert result.trace.measurements()  # both separations reported

    def test_separator_sweep_ends_in_listings(self):
        from repro.compiler.passes import run_compile

        for seed in range(40):
            ctx = run_compile(dag=self.dag(seed), certify=True)
            assert ctx.compiled.program.instructions, seed
            errors = [
                d for d in ctx.diagnostics if d.severity.value == "error"
            ]
            assert all(d.code for d in errors), (seed, errors)


class TestErrors:
    def test_missing_source_location(self):
        dag = AssayDAG("broken")
        dag.add_input("A")
        with pytest.raises(KeyError):
            # sensor mode that no unit supports
            from repro.core.dag import NodeKind, Node

            dag.node("A").meta["senses"] = [{"mode": "XX", "result": "r"}]
            generate(dag, AQUACORE_SPEC)


class TestOperandTable:
    """One Operand per location per ``generate`` call, no more."""

    def test_instructions_share_each_locations_operand(self):
        program, __ = generate(glucose.build_dag(), AQUACORE_SPEC)
        by_text: dict[str, set[int]] = {}
        for instruction in program:
            for operand in (instruction.dst, instruction.src):
                if operand is not None:
                    by_text.setdefault(str(operand), set()).add(id(operand))
        assert by_text
        assert all(len(ids) == 1 for ids in by_text.values()), by_text

    def test_no_operand_outlives_one_call(self):
        first, __ = generate(glucose.build_dag(), AQUACORE_SPEC)
        second, __ = generate(glucose.build_dag(), AQUACORE_SPEC)
        assert first.render() == second.render()
        assert first[0].dst == second[0].dst
        assert first[0].dst is not second[0].dst

    def test_emitted_instructions_are_valid(self):
        program, __ = generate(paper_example.build_dag(), AQUACORE_SPEC)
        for instruction in program:
            instruction.validate()
