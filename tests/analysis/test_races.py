"""Static race detection: happens-before, lockset classification, CLI.

Each RACE-* code gets a minimal hand-written witness: two assays
double-booking a mixer (WW), a mutation racing a sense (RW), one input
port sourcing two fluids (PORT), guarded accesses (GUARDED), summed
reservoir demand over the bank (BANK), route contention and unroutable
endpoints on an explicit topology (ROUTE / UNROUTABLE), and a single
program whose mixer sessions rest on emission order alone (ORDER).
"""

import json
from fractions import Fraction

import pytest

from repro.analysis.certify import certify_schedule
from repro.analysis.certify.codes import SCHED_CODES
from repro.analysis.races import (
    RACE_CODES,
    BarrierOrder,
    analyze_races,
)
from repro.cli import main
from repro.ir.instructions import input_, mix, move, output, sense
from repro.ir.program import AISProgram
from repro.machine.spec import AQUACORE_SPEC
from repro.machine.topology import ChannelTopology, bus_topology

import pathlib

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _program(*instructions, name="hand"):
    program = AISProgram(name=name, machine=AQUACORE_SPEC.name)
    program.extend(instructions)
    return program


def _assay(name, *, port, fluid, reservoir, unit="mixer1", out="op1"):
    """One tiny assay: fill a reservoir, mix in a unit, emit the result."""
    return _program(
        input_(reservoir, port, abs_volume=Fraction(10), meta={"node": fluid}),
        move(unit, reservoir),
        mix(unit, 3),
        output(out, unit),
        name=name,
    )


def _errors(report):
    return [d for d in report.findings if d.severity.value == "error"]


# ---------------------------------------------------------------------------
class TestCodeCatalogue:
    def test_eight_codes_with_race_prefix(self):
        assert len(RACE_CODES) == 8
        assert all(code.startswith("RACE-") for code in RACE_CODES)

    def test_severity_split(self):
        severities = {
            code: info.severity.value for code, info in RACE_CODES.items()
        }
        assert severities == {
            "RACE-WW": "error",
            "RACE-RW": "error",
            "RACE-PORT": "error",
            "RACE-ROUTE": "error",
            "RACE-UNROUTABLE": "error",
            "RACE-BANK": "note",
            "RACE-GUARDED": "note",
            "RACE-ORDER": "note",
        }

    def test_disjoint_from_sched_catalogue(self):
        assert not set(RACE_CODES) & set(SCHED_CODES)


# ---------------------------------------------------------------------------
class TestBarrierOrder:
    def _pair(self):
        a = _assay("a", port="ip1", fluid="A", reservoir="s1")
        b = _assay("b", port="ip2", fluid="B", reservoir="s2", unit="mixer2")
        return a, b

    def test_no_barriers_everything_cross_program_is_mhp(self):
        a, b = self._pair()
        order = BarrierOrder([a, b])
        assert order.mhp(0, 0, 1, 3)
        assert order.mhp(0, 3, 1, 0)
        # program order is total within one stream
        assert not order.mhp(0, 0, 0, 3)

    def test_barrier_epochs_order_prefix_before_suffix(self):
        a, b = self._pair()
        order = BarrierOrder([a, b], barriers=[(2, 1)])
        assert [order.epoch(0, i) for i in range(4)] == [0, 0, 1, 1]
        assert [order.epoch(1, i) for i in range(4)] == [0, 1, 1, 1]
        assert order.mhp(0, 0, 1, 0)       # both epoch 0
        assert not order.mhp(0, 0, 1, 1)   # a@0 happens before b@1
        assert not order.mhp(0, 2, 1, 0)   # b@0 happens before a@2
        assert order.mhp(0, 2, 1, 3)       # both epoch 1

    def test_mhp_pair_count_matches_brute_force(self):
        a, b = self._pair()
        order = BarrierOrder([a, b], barriers=[(2, 1)])
        wet_a = [i for i, ins in enumerate(a.instructions) if ins.is_wet]
        wet_b = [j for j, ins in enumerate(b.instructions) if ins.is_wet]
        brute = sum(order.mhp(0, i, 1, j) for i in wet_a for j in wet_b)
        cross, mhp = order.mhp_pair_count()
        assert cross == len(wet_a) * len(wet_b)
        assert mhp == brute

    def test_full_barrier_serializes_everything(self):
        a, b = self._pair()
        order = BarrierOrder([a, b], barriers=[(len(a.instructions), 0)])
        cross, mhp = order.mhp_pair_count()
        assert cross > 0 and mhp == 0

    def test_barrier_arity_is_validated(self):
        a, b = self._pair()
        with pytest.raises(ValueError, match="one cut index per"):
            BarrierOrder([a, b], barriers=[(2,)])


# ---------------------------------------------------------------------------
class TestMergedDetection:
    def test_shared_mixer_is_a_definite_ww_race(self):
        a = _assay("a", port="ip1", fluid="A", reservoir="s1")
        b = _assay("b", port="ip2", fluid="B", reservoir="s2")
        report = analyze_races([a, b])
        assert report.codes() == {"RACE-WW"}
        assert _errors(report)
        assert report.exit_code == 2
        [finding] = report.findings
        assert finding.operand == "mixer1"
        assert "may happen in parallel" in finding.message

    def test_disjoint_assays_are_race_free(self):
        a = _assay("a", port="ip1", fluid="A", reservoir="s1")
        b = _assay(
            "b", port="ip2", fluid="B", reservoir="s2",
            unit="mixer2", out="op2",
        )
        report = analyze_races([a, b])
        assert report.findings == []
        assert report.is_clean
        assert "race-free" in report.render_text()

    def test_reservoirs_namespaced_unless_storage_shared(self):
        # both assays use s1, but a re-banking scheduler renames one
        a = _assay("a", port="ip1", fluid="A", reservoir="s1")
        b = _assay(
            "b", port="ip2", fluid="B", reservoir="s1",
            unit="mixer2", out="op2",
        )
        assert analyze_races([a, b]).findings == []
        shared = analyze_races([a, b], share_storage=True)
        assert shared.codes() == {"RACE-WW"}
        assert {d.operand for d in shared.findings} == {"s1"}

    def test_port_sourcing_two_fluids_is_a_port_clash(self):
        a = _assay("a", port="ip1", fluid="A", reservoir="s1")
        b = _assay(
            "b", port="ip1", fluid="B", reservoir="s2",
            unit="mixer2", out="op2",
        )
        report = analyze_races([a, b])
        assert report.codes() == {"RACE-PORT"}
        [finding] = report.findings
        assert finding.operand == "ip1"
        assert "'A'" in finding.message and "'B'" in finding.message

    @pytest.mark.parametrize(
        "first, second, clash",
        [
            ({"meta": {"node": "A"}}, {"comment": "A"}, False),
            ({"edge": ("A", "x")}, {"meta": {"aux": "A"}}, False),
            ({"meta": {"park": "A"}}, {"meta": {"node": "B"}}, True),
            ({"comment": "A"}, {"comment": "B"}, True),
            (
                {"meta": {"node": "A", "sense_of": "B"}},
                {"meta": {"sense_of": "B"}},
                True,
            ),
        ],
    )
    def test_port_clash_agrees_with_the_certifier(self, first, second, clash):
        """RACE-PORT and SCHED-PORT-CLASH name fluids by one rule
        (``repro.ir.instructions.fluid_label``)."""
        a = input_("s1", "ip1", abs_volume=Fraction(10), **first)
        b = input_("s2", "ip1", abs_volume=Fraction(10), **second)
        serial = certify_schedule(_program(a, b), AQUACORE_SPEC)
        merged = analyze_races([_program(a, name="a"), _program(b, name="b")])
        assert ("SCHED-PORT-CLASH" in {d.code for d in serial}) is clash
        assert ("RACE-PORT" in merged.codes()) is clash

    def test_port_sharing_one_fluid_is_safe(self):
        a = _assay("a", port="ip1", fluid="A", reservoir="s1")
        b = _assay(
            "b", port="ip1", fluid="A", reservoir="s2",
            unit="mixer2", out="op2",
        )
        assert analyze_races([a, b]).findings == []

    def test_mutation_racing_a_sense_is_rw(self):
        a = _program(
            input_("s1", "ip1", abs_volume=Fraction(10), meta={"node": "A"}),
            move("sensor1", "s1"),
            name="a",
        )
        b = _program(
            input_("s2", "ip2", abs_volume=Fraction(10), meta={"node": "B"}),
            move("sensor1", "s2"),
            sense("sensor1", "OD", "r0"),
            name="b",
        )
        codes = analyze_races([a, b]).codes()
        assert "RACE-RW" in codes   # a's fill vs b's pure sense read
        assert "RACE-WW" in codes   # a's fill vs b's fill

    def test_guarded_access_downgrades_to_possible_race(self):
        a = _assay("a", port="ip1", fluid="A", reservoir="s1")
        b = _program(
            input_("s1", "ip2", abs_volume=Fraction(10), meta={"node": "B"}),
            move("mixer1", "s1", meta={"guard": "r0"}),
            name="b",
        )
        report = analyze_races([a, b])
        assert report.codes() == {"RACE-GUARDED"}
        assert not _errors(report)
        assert report.exit_code == 0

    def test_summed_reservoir_demand_over_bank_is_noted(self):
        bank = len(AQUACORE_SPEC.reservoir_names())
        half = bank // 2 + 1

        def parker(name):
            return _program(
                *[
                    input_(
                        f"s{i + 1}",
                        f"ip{(i % 16) + 1}",
                        abs_volume=Fraction(5),
                        meta={"node": f"f{i}"},   # same fluid per port
                    )
                    for i in range(half)
                ],
                name=name,
            )

        report = analyze_races([parker("a"), parker("b")])
        assert report.codes() == {"RACE-BANK"}
        [finding] = report.findings
        assert finding.severity.value == "note"
        assert f"demand {2 * half}" in finding.message
        assert report.is_clean

    def test_full_barrier_makes_any_pair_race_free(self):
        a = _assay("a", port="ip1", fluid="A", reservoir="s1")
        b = _assay("b", port="ip2", fluid="B", reservoir="s2")
        report = analyze_races(
            [a, b], barriers=[(len(a.instructions), 0)]
        )
        assert report.findings == []
        assert report.extras["mhp"]["mhp_pairs"] == 0
        assert report.extras["mhp"]["barriers"] == 1

    def test_duplicate_pairs_are_grouped(self):
        a = _assay("a", port="ip1", fluid="A", reservoir="s1")
        b = _assay("b", port="ip2", fluid="B", reservoir="s2")
        [finding] = analyze_races([a, b]).findings
        assert "more such pair(s)" in finding.message

    def test_mhp_summary_block(self):
        a = _assay("a", port="ip1", fluid="A", reservoir="s1")
        b = _assay("b", port="ip2", fluid="B", reservoir="s2")
        mhp = analyze_races([a, b]).extras["mhp"]
        assert mhp["mode"] == "merged"
        assert mhp["programs"] == 2
        assert mhp["pairs"] == mhp["mhp_pairs"] > 0
        assert mhp["shared_resources"] >= 1


# ---------------------------------------------------------------------------
class TestRouteContention:
    def _islands(self):
        """Two disconnected channel islands, one per assay."""
        topology = ChannelTopology(name="islands")
        for chain in (("ip1", "s1", "mixer1", "op1"),
                      ("ip2", "s2", "mixer2", "op2")):
            for left, right in zip(chain, chain[1:]):
                topology.add_channel(left, right)
        return topology

    def _disjoint_pair(self):
        a = _assay("a", port="ip1", fluid="A", reservoir="s1")
        b = _assay(
            "b", port="ip2", fluid="B", reservoir="s2",
            unit="mixer2", out="op2",
        )
        return a, b

    def test_disjoint_routes_do_not_conflict(self):
        a, b = self._disjoint_pair()
        report = analyze_races([a, b], topology=self._islands())
        assert report.findings == []

    def test_bus_topology_serializes_the_wet_path(self):
        a, b = self._disjoint_pair()
        report = analyze_races(
            [a, b], topology=bus_topology(AQUACORE_SPEC)
        )
        assert report.codes() == {"RACE-ROUTE"}
        assert "shared channel" in report.findings[0].message

    def test_missing_endpoint_is_unroutable(self):
        topology = self._islands()
        a, b = self._disjoint_pair()
        c = _assay(
            "c", port="ip3", fluid="C", reservoir="s3",
            unit="heater1", out="op3",
        )
        report = analyze_races([a, c], topology=topology)
        codes = report.codes()
        assert "RACE-UNROUTABLE" in codes
        unroutable = [
            d for d in report.findings if d.code == "RACE-UNROUTABLE"
        ]
        assert all(d.severity.value == "error" for d in unroutable)

    def test_single_program_unroutable_move(self):
        program = _assay("a", port="ip1", fluid="A", reservoir="s3")
        report = analyze_races(program, topology=self._islands())
        assert "RACE-UNROUTABLE" in report.codes()

    def test_barrier_suppresses_route_conflicts(self):
        a, b = self._disjoint_pair()
        report = analyze_races(
            [a, b],
            topology=bus_topology(AQUACORE_SPEC),
            barriers=[(len(a.instructions), 0)],
        )
        assert report.findings == []


# ---------------------------------------------------------------------------
class TestSingleMode:
    def _sessions(self):
        return _program(
            input_("s1", "ip1", abs_volume=Fraction(10)),
            move("mixer1", "s1"),
            mix("mixer1", 3),
            output("op1", "mixer1"),
            input_("s2", "ip2", abs_volume=Fraction(10)),
            move("mixer1", "s2"),
            mix("mixer1", 3),
            output("op1", "mixer1"),
            name="sessions",
        )

    def test_independent_sessions_are_schedule_sensitive(self):
        report = analyze_races(self._sessions())
        assert report.codes() == {"RACE-ORDER"}
        [finding] = report.findings
        assert finding.severity.value == "note"
        assert "instructions 1 and 5" in finding.message
        assert finding.operand == "mixer1"
        # 3 accesses per session -> 9 cross-session pairs, grouped
        assert "+8 more such pair(s)" in finding.message
        assert report.exit_code == 0

    def test_chained_program_is_race_free(self):
        program = _assay("a", port="ip1", fluid="A", reservoir="s1")
        report = analyze_races(program)
        assert report.findings == []
        assert report.extras["mhp"]["mode"] == "single"
        assert report.extras["mhp"]["mhp_pairs"] == 0

    def test_sense_fence_between_sessions_orders_them(self):
        # the sense result feeds dynamic guards, so it fences the stream:
        # session 2 is ordered after session 1 through the fence.
        fenced = _program(
            input_("s1", "ip1", abs_volume=Fraction(10)),
            move("mixer1", "s1"),
            mix("mixer1", 3),
            move("sensor2", "mixer1"),
            sense("sensor2", "OD", "r0"),
            input_("s2", "ip2", abs_volume=Fraction(10)),
            move("mixer1", "s2"),
            mix("mixer1", 3),
            output("op1", "mixer1"),
            name="fenced",
        )
        assert analyze_races(fenced).findings == []

    def test_guarded_session_is_a_guarded_note(self):
        program = self._sessions()
        program.instructions[5].meta["guard"] = "r0"
        codes = analyze_races(program).codes()
        assert "RACE-GUARDED" in codes

    def test_compile_with_every_analyzer_walks_the_listing_three_times(
        self, monkeypatch
    ):
        """Lint, certify and the race detector walk the listing once
        each: the detector's ordering and its access records share one
        forward walk."""
        from repro.analysis.dataflow import ForwardAnalysis
        from repro.assays import enzyme
        from repro.compiler.passes import run_compile

        walks = []
        original = ForwardAnalysis.__init__

        def counting(self, *args, **kwargs):
            walks.append(args[0])
            original(self, *args, **kwargs)

        monkeypatch.setattr(ForwardAnalysis, "__init__", counting)
        ctx = run_compile(
            dag=enzyme.build_dag(), lint=True, certify=True, race_check=True
        )
        assert ctx.compiled.listing()
        assert len(walks) == 3


# ---------------------------------------------------------------------------
class TestReportShape:
    def _report(self):
        a = _assay("a", port="ip1", fluid="A", reservoir="s1")
        b = _assay("b", port="ip2", fluid="B", reservoir="s2")
        return analyze_races([a, b])

    def test_v1_payload_with_mhp_summary(self):
        payload = self._report().to_dict()
        assert payload["version"] == 1
        assert payload["tool"] == "races"
        assert payload["program"] == "a+b"
        assert payload["machine"] == AQUACORE_SPEC.name
        assert payload["summary"]["clean"] is False
        assert payload["summary"]["errors"] == 1
        mhp = payload["summary"]["mhp"]
        assert set(mhp) == {
            "mode", "programs", "wet_instructions", "barriers",
            "pairs", "mhp_pairs", "shared_resources",
        }
        json.loads(self._report().render_json())  # serializable

    def test_render_text_summarizes_mhp(self):
        text = self._report().render_text()
        assert "1 error(s)" in text
        assert "MHP pair(s) over 2 program(s)" in text

    def test_single_program_argument_is_accepted(self):
        report = analyze_races(
            _assay("solo", port="ip1", fluid="A", reservoir="s1")
        )
        assert report.program == "solo"

    def test_empty_program_list_is_rejected(self):
        with pytest.raises(ValueError, match="at least one program"):
            analyze_races([])

    def test_explicit_name_overrides_join(self):
        a = _assay("a", port="ip1", fluid="A", reservoir="s1")
        report = analyze_races([a], name="renamed")
        assert report.program == "renamed"


# ---------------------------------------------------------------------------
class TestConflictCache:
    def _topology(self):
        topology = ChannelTopology(name="t")
        for left, right in (
            ("ip1", "s1"), ("s1", "mixer1"), ("mixer1", "op1"),
            ("ip2", "s2"), ("s2", "mixer2"), ("mixer2", "op1"),
        ):
            topology.add_channel(left, right)
        return topology

    def test_verdicts_are_memoized_symmetrically(self):
        topology = self._topology()
        first, second = ("ip1", "mixer1"), ("ip2", "mixer2")
        assert topology.conflicts(first, second) is False
        assert len(topology._conflict_cache) == 1
        # the symmetric query hits the same canonical entry
        assert topology.conflicts(second, first) is False
        assert len(topology._conflict_cache) == 1

    def test_cached_verdict_matches_fresh_computation(self):
        topology = self._topology()
        pairs = [
            (("ip1", "mixer1"), ("ip2", "mixer2")),
            (("ip1", "op1"), ("ip2", "op1")),
            (("s1", "mixer1"), ("mixer1", "op1")),
        ]
        warm = [topology.conflicts(a, b) for a, b in pairs]
        again = [topology.conflicts(a, b) for a, b in pairs]
        fresh = [self._topology().conflicts(a, b) for a, b in pairs]
        assert warm == again == fresh == [False, True, True]

    def test_shared_endpoint_flag_gets_its_own_entry(self):
        topology = self._topology()
        handoff = (("s1", "mixer1"), ("mixer1", "op1"))
        assert topology.conflicts(*handoff) is True
        assert topology.conflicts(*handoff, allow_shared_endpoint=True) is False
        assert len(topology._conflict_cache) == 2

    def test_add_channel_invalidates_the_cache(self):
        topology = self._topology()
        first, second = ("ip1", "mixer1"), ("ip2", "mixer2")
        assert topology.conflicts(first, second) is False
        topology.add_channel("mixer1", "mixer2")
        assert topology._conflict_cache == {}
        # still disjoint routes (shortest paths unchanged)
        assert topology.conflicts(first, second) is False


# ---------------------------------------------------------------------------
class TestRacesCli:
    def test_clean_fixture_is_race_free(self, capsys):
        code = main(
            ["lint", str(FIXTURES / "clean_dilution.ais"), "--races"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "race-free" in out

    def test_session_reuse_fixture_reports_order_notes(self, capsys):
        code = main(
            ["lint", str(FIXTURES / "session_reuse.ais"), "--races"]
        )
        out = capsys.readouterr().out
        assert code == 0   # notes only: the serial schedule is sound
        assert "RACE-ORDER" in out
        assert "mixer1" in out

    def test_json_payload(self, capsys):
        code = main(
            [
                "lint", str(FIXTURES / "session_reuse.ais"),
                "--races", "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["tool"] == "races"
        assert payload["version"] == 1
        assert payload["summary"]["mhp"]["mode"] == "single"
        assert payload["summary"]["notes"] >= 1

    def test_topology_flag(self, capsys):
        code = main(
            [
                "lint", str(FIXTURES / "clean_dilution.ais"),
                "--races", "--topology", "bus",
            ]
        )
        assert code == 0
        assert "race-free" in capsys.readouterr().out

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ais"
        bad.write_text("not an AIS listing {")
        assert main(["lint", str(bad), "--races"]) == 2

    def test_assay_source_compiles_then_race_checks(self, tmp_path, capsys):
        from repro.assays import glucose

        path = tmp_path / "glucose.fluid"
        path.write_text(glucose.SOURCE)
        code = main(["lint", str(path), "--assay", "--races", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["tool"] == "races"
        assert payload["summary"]["errors"] == 0


class TestCompileRaceCheckCli:
    def test_race_check_pass_is_timed(self, tmp_path, capsys):
        from repro.assays import glucose

        path = tmp_path / "glucose.fluid"
        path.write_text(glucose.SOURCE)
        code = main(
            ["compile", str(path), "--race-check", "--time-passes"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "race-check" in captured.err  # the timing table

    def test_race_check_appears_in_stats_json(self, tmp_path, capsys):
        from repro.assays import glucose

        path = tmp_path / "glucose.fluid"
        path.write_text(glucose.SOURCE)
        stats = tmp_path / "stats.json"
        code = main(
            [
                "compile", str(path), "--race-check",
                "--stats-json", str(stats),
            ]
        )
        assert code == 0
        payload = json.loads(stats.read_text())
        names = [event["name"] for event in payload["passes"]]
        assert "race-check" in names

    def test_without_flag_the_pass_is_skipped(self, tmp_path, capsys):
        from repro.assays import glucose

        path = tmp_path / "glucose.fluid"
        path.write_text(glucose.SOURCE)
        stats = tmp_path / "stats.json"
        assert main(
            ["compile", str(path), "--stats-json", str(stats)]
        ) == 0
        payload = json.loads(stats.read_text())
        event = next(
            e for e in payload["passes"] if e["name"] == "race-check"
        )
        assert event["status"] == "skipped"

    def test_batch_mode_rejects_race_check(self, tmp_path):
        from repro.assays import glucose

        path = tmp_path / "glucose.fluid"
        path.write_text(glucose.SOURCE)
        with pytest.raises(SystemExit, match="batch"):
            main(["compile", str(path), "--batch", "--race-check"])
