"""Schedule interference: occupancy conflicts in the emitted program.

Each hazard class gets a minimal hand-written program: a double-booked
mixer, a dry pump, a port sourcing two fluids, an unroutable move, and —
with an explicit concurrency schedule — two transfers contending for a
channel.
"""

from fractions import Fraction

from repro.analysis.certify import certify_program, certify_schedule
from repro.assays import glucose
from repro.compiler.passes import run_compile
from repro.ir.instructions import input_, mix, move, output, sense, separate
from repro.ir.program import AISProgram
from repro.machine.spec import AQUACORE_SPEC
from repro.machine.topology import ChannelTopology, bus_topology


def _program(*instructions) -> AISProgram:
    program = AISProgram(name="hand", machine=AQUACORE_SPEC.name)
    program.extend(instructions)
    return program


def _codes(diagnostics):
    return [d.code for d in diagnostics]


def _errors(diagnostics):
    return [d.code for d in diagnostics if d.severity.value == "error"]


class TestCleanSchedules:
    def test_simple_mix_certifies(self):
        program = _program(
            input_("s1", "ip1", abs_volume=Fraction(10)),
            input_("s2", "ip2", abs_volume=Fraction(10)),
            move("mixer1", "s1"),
            move("mixer1", "s2"),
            mix("mixer1", 3),
            output("op1", "mixer1"),
        )
        diagnostics = certify_schedule(program, AQUACORE_SPEC)
        assert not diagnostics, [str(d) for d in diagnostics]

    def test_compiled_glucose_certifies(self):
        compiled = run_compile(source=glucose.SOURCE).compiled
        diagnostics = certify_schedule(
            compiled.program,
            compiled.spec,
            topology=bus_topology(compiled.spec),
        )
        assert not _errors(diagnostics), [str(d) for d in diagnostics]

    def test_flush_of_empty_unit_is_no_op(self):
        # the generator drains units defensively; not a finding
        program = _program(output("op1", "mixer1"))
        diagnostics = certify_schedule(program, AQUACORE_SPEC)
        assert not diagnostics


class TestDoubleBooking:
    def test_mixer_double_booked(self):
        """The ISSUE acceptance case: two operations booking one mixer."""
        program = _program(
            input_("mixer1", "ip1", abs_volume=Fraction(10)),
            mix("mixer1", 3),
            # second op deposits into the mixer that still holds product
            input_("mixer1", "ip2", abs_volume=Fraction(10)),
        )
        diagnostics = certify_schedule(program, AQUACORE_SPEC)
        assert "SCHED-DOUBLE-BOOK" in _errors(diagnostics)

    def test_move_onto_parked_product(self):
        program = _program(
            input_("mixer1", "ip1", abs_volume=Fraction(10)),
            move("s1", "mixer1"),
            input_("mixer2", "ip2", abs_volume=Fraction(10)),
            move("s1", "mixer2"),  # s1 still holds the first product
        )
        diagnostics = certify_schedule(program, AQUACORE_SPEC)
        assert "SCHED-DOUBLE-BOOK" in _errors(diagnostics)

    def test_move_onto_unit_product(self):
        """A mixed product in a unit collides with the next transfer in."""
        program = _program(
            input_("s1", "ip1", abs_volume=Fraction(10)),
            input_("s2", "ip2", abs_volume=Fraction(10)),
            move("mixer1", "s1", rel_volume=Fraction(1)),
            mix("mixer1", 3),
            move("mixer1", "s2", rel_volume=Fraction(1)),
        )
        diagnostics = certify_schedule(program, AQUACORE_SPEC)
        assert [(d.code, d.instruction) for d in diagnostics] == [
            ("SCHED-DOUBLE-BOOK", 4)
        ]

    def test_pending_effluent_collides_but_waste_is_flushed(self):
        """A separation flushes both outlets: losing the last run's
        effluent (``out1``) is a double-book, its waste (``out2``) is not."""
        program = _program(
            input_("separator1", "ip1", abs_volume=Fraction(10)),
            separate("separator1", "AF", 30),
            input_("separator1", "ip2", abs_volume=Fraction(10)),
            separate("separator1", "AF", 30),
        )
        diagnostics = certify_schedule(program, AQUACORE_SPEC)
        assert [(d.code, d.operand) for d in diagnostics] == [
            ("SCHED-DOUBLE-BOOK", "separator1.out1")
        ]

    def test_possibly_absent_fluid_does_not_double_book(self):
        """Moving fluid a guard may never have loaded is no definite
        collision, even into a reservoir that holds fluid."""
        guarded = input_("s1", "ip1", abs_volume=Fraction(10))
        guarded.meta["guard"] = ("c0", True)
        program = _program(
            guarded,
            input_("s2", "ip2", abs_volume=Fraction(10)),
            move("s2", "s1", rel_volume=Fraction(1)),
        )
        assert not certify_schedule(program, AQUACORE_SPEC)

    def test_filling_unit_accumulates_without_finding(self):
        program = _program(
            input_("s1", "ip1", abs_volume=Fraction(10)),
            input_("s2", "ip2", abs_volume=Fraction(10)),
            move("mixer1", "s1"),
            move("mixer1", "s2"),  # second ingredient: merging is the point
            mix("mixer1", 3),
        )
        diagnostics = certify_schedule(program, AQUACORE_SPEC)
        assert not _errors(diagnostics), [str(d) for d in diagnostics]


class TestDryAndPortHazards:
    def test_move_from_empty_reservoir(self):
        program = _program(move("mixer1", "s1"))
        diagnostics = certify_schedule(program, AQUACORE_SPEC)
        assert "SCHED-DRY-PUMP" in _errors(diagnostics)

    def test_mix_on_empty_unit(self):
        program = _program(mix("mixer1", 3))
        diagnostics = certify_schedule(program, AQUACORE_SPEC)
        assert "SCHED-DRY-PUMP" in _errors(diagnostics)

    def test_sense_on_empty_unit(self):
        program = _program(sense("sensor1", "OD", "r1"))
        diagnostics = certify_schedule(program, AQUACORE_SPEC)
        assert "SCHED-DRY-PUMP" in _errors(diagnostics)

    def test_port_sources_two_fluids(self):
        first = input_("s1", "ip1", abs_volume=Fraction(10))
        first.meta["node"] = "Glucose"
        second = input_("s2", "ip1", abs_volume=Fraction(10))
        second.meta["node"] = "Reagent"
        program = _program(first, second)
        diagnostics = certify_schedule(program, AQUACORE_SPEC)
        assert "SCHED-PORT-CLASH" in _errors(diagnostics)

    def test_initial_occupancy_feeds_first_move(self):
        """A constrained input parked by a previous partition is a valid
        source with no ``input`` instruction."""
        program = _program(move("mixer1", "s3"))
        diagnostics = certify_schedule(
            program, AQUACORE_SPEC, initial={"s3": "Sample"}
        )
        assert not _errors(diagnostics)


class TestGuards:
    def test_guarded_instructions_never_flag(self):
        guarded = move("mixer1", "s1")
        guarded.meta["guard"] = "c0"
        program = _program(guarded)
        diagnostics = certify_schedule(program, AQUACORE_SPEC)
        assert not diagnostics

    def test_guarded_effects_stay_unknown(self):
        guarded = input_("s1", "ip1", abs_volume=Fraction(10))
        guarded.meta["guard"] = "c0"
        program = _program(
            guarded,
            input_("s1", "ip2", abs_volume=Fraction(10)),
        )
        diagnostics = certify_schedule(program, AQUACORE_SPEC)
        # whether s1 is occupied depends on the run-time guard: no finding
        assert "SCHED-DOUBLE-BOOK" not in _codes(diagnostics)


class TestRouting:
    def _sparse(self) -> ChannelTopology:
        topology = ChannelTopology("sparse")
        topology.add_channel("ip1", "s1")
        topology.add_channel("s1", "mixer1")
        topology.add_location("heater1")
        return topology

    def test_unroutable_move(self):
        program = _program(
            input_("s1", "ip1", abs_volume=Fraction(10)),
            move("heater1", "s1"),  # island: no channel reaches it
        )
        diagnostics = certify_schedule(
            program, AQUACORE_SPEC, topology=self._sparse()
        )
        assert "SCHED-UNROUTABLE" in _errors(diagnostics)

    def test_route_through_occupied_unit_warns(self):
        program = _program(
            input_("s1", "ip1", abs_volume=Fraction(10)),
            move("mixer1", "ip1", rel_volume=Fraction(1)),
        )
        diagnostics = certify_schedule(
            program, AQUACORE_SPEC, topology=self._sparse()
        )
        # ip1 -> mixer1 routes through s1, which holds the first draw
        through = [d for d in diagnostics if d.code == "SCHED-ROUTE-THROUGH"]
        assert through and through[0].severity.value == "warning"


class TestSlotOverlap:
    def test_concurrent_bus_transfers_conflict(self):
        program = _program(
            input_("s1", "ip1", abs_volume=Fraction(10)),
            input_("s2", "ip2", abs_volume=Fraction(10)),
        )
        diagnostics = certify_schedule(
            program,
            AQUACORE_SPEC,
            topology=bus_topology(AQUACORE_SPEC),
            slots=[0, 0],  # same slot: both transfers cross the bus at once
        )
        assert "SCHED-ROUTE-OVERLAP" in _errors(diagnostics)

    def test_serial_transfers_do_not_conflict(self):
        program = _program(
            input_("s1", "ip1", abs_volume=Fraction(10)),
            input_("s2", "ip2", abs_volume=Fraction(10)),
        )
        diagnostics = certify_schedule(
            program,
            AQUACORE_SPEC,
            topology=bus_topology(AQUACORE_SPEC),
            slots=[0, 1],
        )
        assert "SCHED-ROUTE-OVERLAP" not in _codes(diagnostics)

    def test_chained_handoff_allowed_on_disjoint_topology(self):
        topology = ChannelTopology("line")
        topology.add_channel("ip1", "s1")
        topology.add_channel("s1", "mixer1")
        program = _program(
            input_("s1", "ip1", abs_volume=Fraction(10)),
            move("mixer1", "s1"),
        )
        diagnostics = certify_schedule(
            program, AQUACORE_SPEC, topology=topology, slots=[0, 0]
        )
        # the two transfers share only the hand-off endpoint s1
        assert "SCHED-ROUTE-OVERLAP" not in _codes(diagnostics)


class TestCertifyProgram:
    def test_program_report_is_schedule_only(self):
        program = _program(
            input_("mixer1", "ip1", abs_volume=Fraction(10)),
            mix("mixer1", 3),
            output("op1", "mixer1"),
        )
        report = certify_program(program, AQUACORE_SPEC)
        assert report.extras["schedule_checked"]
        assert not report.extras["plan_checked"]
        assert report.exit_code == 0
        assert "certified" in report.render_text()
