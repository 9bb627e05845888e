"""Golden plan-cache payloads: the bytes ``PlanCache.put_plan`` stores.

``golden_serde_payloads.json`` holds, for the entries
``golden_listings.json`` records (plan status ``dagsolve`` or
``runtime``, both planning objectives), a sha256 over the canonical JSON
of the cache entry a compile stores: the plan with its final DAG and
Vnorms, the rounded assignment and the compile fingerprint.  A run-time
entry stores no plan and is recorded as ``null``.  The payload must stay
byte-identical while ``SERDE_VERSION`` is unchanged, so plans cached by
an earlier build stay readable.

A restored entry must also decide like the fresh plan: the same
violations, the same minimum edge and the same rounding error.

Regenerate after an intended change of the serialized form (and a bump
of ``SERDE_VERSION``) with::

    PYTHONPATH=src python tests/compiler/test_serde_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from compiler.test_golden import (  # noqa: E402
    GOLDEN as LISTING_GOLDEN,
    HARNESS,
    OBJECTIVES,
    corpus_entries,
)

from repro.compiler.cache import entry_from_plan, plan_from_entry  # noqa: E402
from repro.core.rounding import max_ratio_error  # noqa: E402
from repro.core.serde import SERDE_VERSION, dumps_canonical  # noqa: E402

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_serde_payloads.json")


def stored_payload(ctx) -> str | None:
    """The canonical text of the entry ``put_plan`` stores, or None when
    the compile leaves planning to run time."""
    if ctx.plan is None:
        return None
    entry = entry_from_plan(ctx.plan, ctx.assignment, ctx.compile_fingerprint())
    return dumps_canonical(entry)


def payload_digest(text: str | None) -> str | None:
    if text is None:
        return None
    return hashlib.sha256(text.encode()).hexdigest()


def golden_records() -> dict:
    entries = dict(corpus_entries())
    records: dict = {}
    for objective in OBJECTIVES:
        for name in sorted(LISTING_GOLDEN[objective]):
            ctx = HARNESS.objective_compile(entries[name], objective)
            records.setdefault(objective, {})[name] = payload_digest(
                stored_payload(ctx)
            )
    return {"serde_version": SERDE_VERSION, "entries": records}


GOLDEN = (
    json.loads(GOLDEN_PATH.read_text())
    if GOLDEN_PATH.exists()
    else {"serde_version": SERDE_VERSION, "entries": {}}
)
CASES = [
    (objective, name)
    for objective in OBJECTIVES
    for name in sorted(GOLDEN["entries"].get(objective, {}))
]


def verdicts(assignment) -> tuple:
    return (
        assignment.violations(),
        assignment.min_edge(),
        max_ratio_error(assignment),
    )


@pytest.mark.parametrize("objective,name", CASES)
def test_payload_matches_golden(objective, name):
    assert GOLDEN["serde_version"] == SERDE_VERSION
    ctx = HARNESS.objective_compile(dict(corpus_entries())[name], objective)
    text = stored_payload(ctx)
    assert payload_digest(text) == GOLDEN["entries"][objective][name]
    if text is None:
        return
    plan, rounded = plan_from_entry(json.loads(text))
    # a restored entry re-serializes to the same bytes ...
    again = entry_from_plan(plan, rounded, ctx.compile_fingerprint())
    assert dumps_canonical(again) == text
    # ... and decides like the fresh plan
    assert verdicts(plan.assignment) == verdicts(ctx.plan.assignment)
    assert verdicts(rounded) == verdicts(ctx.assignment)


def test_golden_covers_the_recorded_listings():
    for objective in OBJECTIVES:
        assert set(GOLDEN["entries"][objective]) == set(
            LISTING_GOLDEN[objective]
        ), objective


if __name__ == "__main__":
    text = json.dumps(golden_records(), indent=2, sort_keys=True) + "\n"
    if "--write" in sys.argv[1:]:
        GOLDEN_PATH.write_text(text)
    else:
        sys.stdout.write(text)
