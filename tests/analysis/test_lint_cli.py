"""The ``repro lint`` command: rendering, exit codes, JSON round trip."""

import json
import pathlib

import pytest

from repro.analysis.lint import EXIT_CLEAN, EXIT_ERRORS
from repro.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def test_lint_clean_fixture(capsys):
    code = main(["lint", str(FIXTURES / "clean_dilution.ais")])
    out = capsys.readouterr().out
    assert code == EXIT_CLEAN
    assert "clean_dilution: clean" in out


def test_lint_flags_use_after_consume(capsys):
    code = main(["lint", str(FIXTURES / "use_after_consume.ais")])
    out = capsys.readouterr().out
    assert code == EXIT_ERRORS
    assert "use-after-consume" in out
    assert "1 error(s)" in out


def test_lint_flags_static_overflow(capsys):
    code = main(["lint", str(FIXTURES / "static_overflow.ais")])
    out = capsys.readouterr().out
    assert code == EXIT_ERRORS
    assert "static-overflow" in out


@pytest.mark.parametrize(
    "fixture, expected_code",
    [
        ("use_after_consume.ais", "use-after-consume"),
        ("static_overflow.ais", "static-overflow"),
    ],
)
def test_lint_json_round_trips(capsys, fixture, expected_code):
    code = main(["lint", str(FIXTURES / fixture), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_ERRORS
    assert payload["version"] == 1
    assert payload["tool"] == "lint"
    assert payload["summary"]["clean"] is False
    assert payload["summary"]["errors"] >= 1
    assert payload["summary"]["exit_code"] == EXIT_ERRORS
    assert expected_code in [d["code"] for d in payload["diagnostics"]]
    diagnostic = payload["diagnostics"][0]
    assert {"code", "severity", "message", "instruction"} <= set(diagnostic)


def test_lint_json_clean(capsys):
    code = main(["lint", str(FIXTURES / "clean_dilution.ais"), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_CLEAN
    assert payload["version"] == 1
    assert payload["summary"]["clean"] is True
    assert payload["diagnostics"] == []
    assert payload["machine"] == "aquacore"


def test_lint_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.ais"
    bad.write_text("p{\n  frobnicate s1\n}\n")
    code = main(["lint", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 2" in err


def test_lint_missing_file_exits_2(capsys):
    code = main(["lint", "no/such/file.ais"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_lint_assay_mode(tmp_path, capsys):
    from repro.assays import glucose

    src = tmp_path / "glucose.fluid"
    src.write_text(glucose.SOURCE)
    code = main(["lint", str(src), "--assay"])
    out = capsys.readouterr().out
    assert code == EXIT_CLEAN
    assert "clean" in out


def test_lint_machine_choice(capsys):
    code = main(
        [
            "lint",
            str(FIXTURES / "clean_dilution.ais"),
            "--machine",
            "aquacore-xl",
            "--json",
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_CLEAN
    assert payload["machine"] == "aquacore-xl"


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--source", "--races"], ("--source", "--races")),
        (["--topology", "ring"], ("--topology", "--races")),
        (["--source", "--topology", "ring"], ("--topology", "--races")),
    ],
)
def test_lint_rejects_conflicting_modes(tmp_path, capsys, flags, named):
    """A mode flag the chosen analyzer would ignore is a usage error, not
    a silently different run (exit 2, both flags named)."""
    from repro.assays import glucose

    src = tmp_path / "glucose.fluid"
    src.write_text(glucose.SOURCE)
    with pytest.raises(SystemExit) as exit_info:
        main(["lint", str(src), *flags])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    for flag in named:
        assert flag in err
