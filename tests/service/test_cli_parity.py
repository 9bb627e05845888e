"""The CLI and the service give the same answers through the same flags.

``repro <kind> FILE --json`` and ``repro client <kind> FILE --url URL``
must print the same bytes and exit with the same code: the daemon
promises "the exact v1 JSON reports the CLI emits".  The flag-surface
test pins every subcommand's option strings, defaults and choices, so a
refactor of how the two front ends define their options cannot add,
drop or change one.
"""

import argparse

import pytest

from repro.assays import glucose
from repro.cli import build_parser, main
from repro.compiler.passes import run_compile
from repro.machine.spec import AQUACORE_SPEC


@pytest.fixture
def files(tmp_path):
    source = tmp_path / "glucose.fluid"
    source.write_text(glucose.SOURCE)
    listing = tmp_path / "glucose.ais"
    compiled = run_compile(source=glucose.SOURCE, spec=AQUACORE_SPEC).compiled
    listing.write_text(compiled.listing() + "\n")
    return {"source": str(source), "listing": str(listing)}


PARITY_CASES = [
    ("compile", "source", []),
    ("compile", "source", ["--objective", "waste"]),
    ("lint", "listing", []),
    ("certify", "source", ["--assay", "--topology", "ring"]),
    (
        "stress",
        "source",
        ["--seeds", "2", "--kinds", "metering-drift", "--budget", "40"],
    ),
    ("stress", "source", ["--seeds", "2", "--objective", "waste"]),
]


@pytest.mark.parametrize(
    "kind, which, flags",
    PARITY_CASES,
    ids=["-".join([kind, *flags]) for kind, _, flags in PARITY_CASES],
)
def test_client_prints_what_the_cli_prints(
    service, files, capsys, kind, which, flags
):
    path = files[which]
    json_flag = [] if kind == "compile" else ["--json"]
    cli_code = main([kind, path, *flags, *json_flag])
    cli_out = capsys.readouterr().out
    served_code = main(["client", kind, path, "--url", service.url, *flags])
    served = capsys.readouterr()
    assert served.err == ""
    assert served.out == cli_out
    assert served_code == cli_code


def _surface(parser: argparse.ArgumentParser) -> dict:
    subparsers = next(
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    surface = {}
    for command, sub in subparsers.choices.items():
        surface[command] = {
            "/".join(action.option_strings) or action.dest: (
                action.default,
                None if action.choices is None else list(action.choices),
            )
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
        }
    return surface


MACHINE = ("aquacore", ["aquacore", "aquacore-xl"])
OBJECTIVE = ("default", ["default", "waste"])
SWITCHES = {
    "--no-lp": (False, None),
    "--no-cascade": (False, None),
    "--no-replicate": (False, None),
}
STRESS = {
    "--seeds": (10, None),
    "--fault-rate": (0.05, None),
    "--kinds": (None, None),
    "--budget": (None, None),
}

FLAG_SURFACE = {
    "check": {"file": (None, None)},
    "dag": {"file": (None, None), "--dot": (False, None)},
    "plan": {
        "file": (None, None),
        "--machine": MACHINE,
        **SWITCHES,
        "--objective": OBJECTIVE,
    },
    "compile": {
        "files": (None, None),
        "--machine": MACHINE,
        **SWITCHES,
        "--objective": OBJECTIVE,
        "--rolled": (False, None),
        "--lint": (False, None),
        "--certify": (False, None),
        "--source-lint": (False, None),
        "--race-check": (False, None),
        "--batch": (False, None),
        "--jobs": (1, None),
        "--cache-dir": (None, None),
        "--cache-size": (512, None),
        "--stats-json": (None, None),
        "--time-passes": (False, None),
        "--explain": (False, None),
        "--profile": (False, None),
    },
    "lint": {
        "file": (None, None),
        "--machine": MACHINE,
        "--json": (False, None),
        "--assay": (False, None),
        "--source": (False, None),
        "--races": (False, None),
        "--topology": (None, ["bus", "ring"]),
    },
    "certify": {
        "file": (None, None),
        "--machine": MACHINE,
        "--json": (False, None),
        "--assay": (False, None),
        "--topology": ("bus", ["bus", "ring"]),
    },
    "run": {
        "file": (None, None),
        "--machine": MACHINE,
        **SWITCHES,
        "--objective": OBJECTIVE,
        "--coeff": (None, None),
        "--sep-yield": (None, None),
        "--trace": (None, None),
        "--topology": (None, ["bus", "ring"]),
    },
    "bench-regen": {
        "file": (None, None),
        "--machine": MACHINE,
        "--ignore-least-count": (False, None),
    },
    "stress": {
        "file": (None, None),
        "--machine": MACHINE,
        **SWITCHES,
        "--objective": OBJECTIVE,
        **STRESS,
        "--json": (False, None),
    },
    "serve": {
        "--host": ("127.0.0.1", None),
        "--port": (8642, None),
        "--jobs": (1, None),
        "--cache-size": (512, None),
        "--cache-dir": (None, None),
        "--ttl": (None, None),
        "--token": (None, None),
        "--max-source-bytes": (262144, None),
    },
    "client": {
        "kind": (None, ["compile", "lint", "certify", "stress", "metrics"]),
        "file": ("-", None),
        "--url": ("http://127.0.0.1:8642", None),
        "--machine": (None, ["aquacore", "aquacore-xl"]),
        "--token": (None, None),
        "--tenant": (None, None),
        "--timeout": (300.0, None),
        "--assay": (False, None),
        "--objective": (None, ["default", "waste"]),
        "--topology": (None, ["bus", "ring"]),
        **STRESS,
    },
}


def test_flag_surface_is_pinned():
    assert _surface(build_parser()) == FLAG_SURFACE
