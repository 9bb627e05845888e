"""Golden reports: a fixed byte reference for what the analyzers print.

``golden_reports.json`` holds, per machine and per corpus entry
(``tools/corpus.py``), sha256 digests of ``render_text()`` and
``render_json()`` for

* ``lint`` and ``races`` over the compiled program;
* ``certify`` over the compiled assay, on the ``bus`` and ``ring``
  channel topologies;
* ``sourceflow`` over the rolled source, for the entries that have one.

The compiled-program reports are recorded only for entries whose plan
comes from DAGSolve (status ``dagsolve``) or is left to run time (status
``runtime``), as in ``tests/compiler/test_golden.py``: LP-planned
volumes can differ in the last digit across the scipy/HiGHS versions the
CI matrix installs, and the certifier's metrics and several finding
messages print them.  The rolled-source verifier never plans, so its
report is recorded for every entry that has a source.

A refactor of the report plumbing that changes any byte of that output
fails here instead of passing a self-comparison.

Regenerate after an intended output change with::

    PYTHONPATH=src python tests/analysis/test_report_golden.py --write
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import pathlib
import sys

import pytest

from repro.analysis import lint_program, verify_source
from repro.analysis.certify import certify
from repro.analysis.races import analyze_races
from repro.compiler.passes import run_compile
from repro.machine.spec import MACHINES
from repro.machine.topology import bus_topology, ring_topology

ROOT = pathlib.Path(__file__).resolve().parents[2]
GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_reports.json")
MACHINE_NAMES = ("aquacore", "aquacore-xl")
TOPOLOGIES = {"bus": bus_topology, "ring": ring_topology}
#: plan statuses whose output does not depend on the LP solver.
RECORDED_STATUSES = ("dagsolve", "runtime")


def _load_harness():
    path = ROOT / "tools" / "corpus.py"
    spec = importlib.util.spec_from_file_location("corpus_harness", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


HARNESS = _load_harness()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def plan_status(compiled) -> str:
    return compiled.plan.status if compiled.plan is not None else "runtime"


def digests(reports: dict) -> dict:
    out = {}
    for label, report in reports.items():
        out[f"{label}.text"] = _sha(report.render_text())
        out[f"{label}.json"] = _sha(report.render_json())
    return out


def compile_entry(machine: str, kwargs: dict):
    return run_compile(spec=MACHINES[machine], **kwargs).compiled


def compiled_digests(machine: str, compiled) -> dict:
    """lint, races and certify (both topologies) over one compile."""
    spec = MACHINES[machine]
    reports = {
        "lint": lint_program(compiled.program, spec),
        "races": analyze_races(compiled.program, spec),
    }
    for label, topology in TOPOLOGIES.items():
        reports[f"certify-{label}"] = certify(
            compiled, topology=topology(spec)
        )
    return digests(reports)


def source_digests(machine: str, name: str, source: str) -> dict:
    report = verify_source(source, MACHINES[machine], name=name)
    return digests({"sourceflow": report})


def golden_records() -> dict:
    """Every report of the corpus that does not depend on the LP solver."""
    records: dict = {"compiled": {}, "source": {}}
    for machine in MACHINE_NAMES:
        compiled_records = records["compiled"].setdefault(machine, {})
        source_records = records["source"].setdefault(machine, {})
        for name, kwargs in HARNESS.corpus_entries():
            compiled = compile_entry(machine, kwargs)
            status = plan_status(compiled)
            if status in RECORDED_STATUSES:
                compiled_records[name] = {
                    "status": status,
                    "digests": compiled_digests(machine, compiled),
                }
            if "source" in kwargs:
                source_records[name] = source_digests(
                    machine, name, kwargs["source"]
                )
    return records


GOLDEN = (
    json.loads(GOLDEN_PATH.read_text())
    if GOLDEN_PATH.exists()
    else {
        section: {machine: {} for machine in MACHINE_NAMES}
        for section in ("compiled", "source")
    }
)
ENTRIES = dict(HARNESS.corpus_entries())


def _cases(section: str) -> list:
    return [
        (machine, name)
        for machine in MACHINE_NAMES
        for name in sorted(GOLDEN[section][machine])
    ]


@pytest.mark.parametrize("machine,name", _cases("compiled"))
def test_compiled_reports_match_golden(machine, name):
    compiled = compile_entry(machine, ENTRIES[name])
    expected = GOLDEN["compiled"][machine][name]
    assert plan_status(compiled) == expected["status"]
    assert compiled_digests(machine, compiled) == expected["digests"]


@pytest.mark.parametrize("machine,name", _cases("source"))
def test_source_report_matches_golden(machine, name):
    source = ENTRIES[name]["source"]
    expected = GOLDEN["source"][machine][name]
    assert source_digests(machine, name, source) == expected


def test_golden_names_are_current_entries():
    rolled = {name for name, kwargs in ENTRIES.items() if "source" in kwargs}
    for machine in MACHINE_NAMES:
        compiled = GOLDEN["compiled"][machine]
        assert compiled, f"no compiled-report records for {machine}"
        assert set(compiled) <= set(ENTRIES), machine
        assert set(GOLDEN["source"][machine]) == rolled, machine


if __name__ == "__main__":
    text = json.dumps(golden_records(), indent=2, sort_keys=True) + "\n"
    if "--write" in sys.argv[1:]:
        GOLDEN_PATH.write_text(text)
    else:
        sys.stdout.write(text)
