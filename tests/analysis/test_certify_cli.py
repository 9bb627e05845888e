"""The ``repro certify`` command: rendering, exit codes, JSON schema."""

import json
import pathlib

from repro.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def test_certify_clean_fixture(capsys):
    code = main(["certify", str(FIXTURES / "clean_dilution.ais")])
    out = capsys.readouterr().out
    assert code == 0
    assert "certified" in out


def test_certify_flags_double_booking(tmp_path, capsys):
    bad = tmp_path / "double_book.ais"
    bad.write_text(
        "double_book{\n"
        "\tinput s1, ip1, 40 ;Sample\n"
        "\tinput s1, ip2, 40 ;Buffer\n"
        "}\n"
    )
    code = main(["certify", str(bad)])
    out = capsys.readouterr().out
    assert code == 2
    assert "SCHED-DOUBLE-BOOK" in out


def test_certify_flags_dry_pump(tmp_path, capsys):
    bad = tmp_path / "dry.ais"
    bad.write_text("dry{\n\tmove mixer1, s1\n\tmix mixer1, 5\n}\n")
    code = main(["certify", str(bad)])
    out = capsys.readouterr().out
    assert code == 2
    assert "SCHED-DRY-PUMP" in out


def test_certify_json_schema(capsys):
    code = main(
        ["certify", str(FIXTURES / "clean_dilution.ais"), "--json"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["version"] == 1
    assert payload["tool"] == "certify"
    assert payload["machine"] == "aquacore"
    assert payload["diagnostics"] == []
    summary = payload["summary"]
    assert summary["clean"] is True
    assert summary["exit_code"] == 0
    assert summary["schedule_checked"] is True
    assert summary["plan_checked"] is False  # bare listing: no plan


def test_certify_assay_mode_checks_the_plan(tmp_path, capsys):
    from repro.assays import glucose

    src = tmp_path / "glucose.fluid"
    src.write_text(glucose.SOURCE)
    code = main(["certify", str(src), "--assay", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["summary"]["plan_checked"] is True
    assert payload["summary"]["metrics"]["delivered_nl"] > 0
    assert "PLAN-WASTE" in [d["code"] for d in payload["diagnostics"]]


def test_certify_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.ais"
    bad.write_text("p{\n  frobnicate s1\n}\n")
    code = main(["certify", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 2" in err


def test_certify_missing_file_exits_2(capsys):
    code = main(["certify", "no/such/file.ais"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_certify_topology_choice(capsys):
    code = main(
        [
            "certify",
            str(FIXTURES / "clean_dilution.ais"),
            "--topology",
            "ring",
        ]
    )
    # ring layout may add wet-path warnings but must stay routable
    assert code in (0, 1)
    assert "SCHED-UNROUTABLE" not in capsys.readouterr().out


def test_lint_and_certify_share_the_schema(capsys):
    main(["lint", str(FIXTURES / "clean_dilution.ais"), "--json"])
    lint_payload = json.loads(capsys.readouterr().out)
    main(["certify", str(FIXTURES / "clean_dilution.ais"), "--json"])
    certify_payload = json.loads(capsys.readouterr().out)
    shared = {"version", "tool", "program", "machine", "diagnostics", "summary"}
    assert shared <= set(lint_payload) and shared <= set(certify_payload)
    assert lint_payload["version"] == certify_payload["version"] == 1
    stable_summary = {"clean", "errors", "warnings", "notes", "exit_code"}
    assert stable_summary <= set(lint_payload["summary"])
    assert stable_summary <= set(certify_payload["summary"])


class TestWalkRuleFixtures:
    """The two fixtures CI certifies and lints: the walk's weak-update
    rule (a guarded park into a reservoir that still holds fluid) and
    its separator rule (a second run flushes ``out1``'s effluent)."""

    def test_guarded_park_is_no_double_book(self, capsys):
        path = str(FIXTURES / "guarded_reuse.fluid")
        assert main(["certify", "--assay", path]) == 0
        assert "SCHED-DOUBLE-BOOK" not in capsys.readouterr().out
        assert main(["lint", "--assay", path]) == 0

    def test_guarded_park_lands_on_held_fluid(self):
        """The fixture exercises the rule: the guarded park's reservoir
        holds fluid in the walk, and the branch without its guard
        double-books it."""
        from repro.analysis.certify import certify
        from repro.analysis.dataflow import AccessKind, ForwardAnalysis
        from repro.analysis.state import ContentKind
        from repro.compiler.passes import run_compile

        source = (FIXTURES / "guarded_reuse.fluid").read_text()
        compiled = run_compile(source=source).compiled
        walk = ForwardAnalysis(compiled.program, compiled.spec)
        parks = [
            access
            for access in walk.accesses
            if access.kind is AccessKind.WRITE_DEPOSIT
            and access.place.kind == "reservoir"
            and access.guarded
        ]
        assert [(a.place.text, a.before.kind) for a in parks] == [
            ("s3", ContentKind.HOLDS)
        ]
        for instruction in compiled.program:
            instruction.meta.pop("guard", None)
        findings = certify(compiled).findings
        assert [(d.code, d.operand) for d in findings if d.code.startswith("SCHED")] == [
            ("SCHED-DOUBLE-BOOK", "s3")
        ]

    def test_second_separation_flushes_effluent(self, capsys):
        path = str(FIXTURES / "separator_effluent.ais")
        assert main(["certify", path]) == 2
        out = capsys.readouterr().out
        assert (
            "SCHED-DOUBLE-BOOK: separation deposits into 'separator1.out1'"
            in out
        )
        assert main(["lint", path]) == 1
        assert "dead-fluid" in capsys.readouterr().out
