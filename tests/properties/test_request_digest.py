"""Property: a served request digest answers exactly one request.

``repro serve`` answers a repeated compile from the tenant's ``src-``
entry, keyed by the request digest over the source bytes, the machine
and the normalized options.  For generated assays on both machines under
both objectives: equal digests give equal compile fingerprints and
byte-identical listings (equal to an in-process compile's), and changing
the source text, the machine or any option misses the digest.  A digest
hit is recognisable from its pass events alone: one ``restore-plan``
event, and no front end or codegen.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.commands import SWITCHES
from repro.compiler.passes import run_compile
from repro.core.hierarchy import VolumeManager
from repro.core.objectives import OBJECTIVES
from repro.machine.spec import MACHINES
from repro.service.client import ServiceClient
from repro.service.server import ServiceConfig, start_in_thread

_TENANTS = (f"prop{index}" for index in itertools.count())


@st.composite
def assay_sources(draw) -> str:
    """A small dilution-style assay: mixes of a few inputs, an optional
    incubation, sensing and one loop."""
    n_inputs = draw(st.integers(min_value=2, max_value=4))
    inputs = [f"in{index}" for index in range(n_inputs)]
    lines = [
        f"ASSAY {draw(st.sampled_from(['probe', 'sweep']))}",
        "START",
        f"fluid {', '.join(inputs)};",
        "fluid work[4];",
        "VAR i, Reading[6];",
    ]
    cells = draw(st.integers(min_value=1, max_value=3))
    for index in range(1, cells + 1):
        a, b = draw(st.permutations(inputs))[:2]
        p = draw(st.integers(min_value=1, max_value=9))
        q = draw(st.integers(min_value=1, max_value=9))
        lines.append(
            f"work[{index}] = MIX {a} AND {b} IN RATIOS {p} : {q} FOR 10;"
        )
        if draw(st.booleans()):
            lines.append("INCUBATE it AT 37 FOR 30;")
        lines.append(f"SENSE OPTICAL it INTO Reading[{index}];")
    if draw(st.booleans()):
        lines += [
            "FOR i FROM 1 TO 2 START",
            f"MIX work[1] AND {inputs[0]} IN RATIOS i : 2 FOR 10;",
            "SENSE OPTICAL it INTO Reading[i + 4];",
            "ENDFOR",
        ]
    lines.append("END")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def service():
    handle = start_in_thread(ServiceConfig(workers=1, use_process_pool=False))
    yield handle
    handle.stop()


def submit(client, source, machine, options):
    job = client.run(
        "compile", source, machine=machine, options=options or None
    )
    assert job["job"]["state"] == "done", job["job"]["error"]
    return job["result"], client.artifact(job["job"]["id"])


def digest_hit(result) -> bool:
    names = [event["name"] for event in result["stats"]["events"]["passes"]]
    return result["cache"] == "hit" and names == ["restore-plan"]


@given(
    source=assay_sources(),
    machine=st.sampled_from(sorted(MACHINES)),
    objective=st.sampled_from(sorted(OBJECTIVES)),
)
@settings(max_examples=12, deadline=None)
def test_equal_digests_serve_equal_bytes(service, source, machine, objective):
    client = ServiceClient(service.url, tenant=next(_TENANTS))
    options = {} if objective == "default" else {"objective": objective}
    first, first_bytes = submit(client, source, machine, options)
    second, second_bytes = submit(client, source, machine, options)
    assert not digest_hit(first)
    assert digest_hit(second)
    assert second["fingerprint"] == first["fingerprint"]
    assert second_bytes == first_bytes
    spec = MACHINES[machine]
    compiled = run_compile(
        source=source,
        spec=spec,
        manager=VolumeManager(spec.limits, objective=objective),
    ).compiled
    assert second_bytes == (compiled.listing() + "\n").encode("utf-8")

    other_machine = next(name for name in sorted(MACHINES) if name != machine)
    other_objective = next(
        name for name in sorted(OBJECTIVES) if name != objective
    )
    changed = [
        (source + "\n", machine, options),
        (source, other_machine, options),
        (source, machine, {**options, "objective": other_objective}),
    ] + [
        (source, machine, {**options, switch.key: False})
        for switch in SWITCHES
    ]
    for variant in changed:
        result, __ = submit(client, *variant)
        assert not digest_hit(result), variant[1:]

    # the assay's name is outside the compile fingerprint but inside the
    # listing: a renamed source shares the plan, not the answer
    renamed = source.replace("ASSAY ", "ASSAY renamed_", 1)
    result, renamed_bytes = submit(client, renamed, machine, options)
    assert not digest_hit(result)
    assert result["fingerprint"] == first["fingerprint"]
    assert renamed_bytes != first_bytes
