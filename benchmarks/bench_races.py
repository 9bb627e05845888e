"""Race-detector cost: wall time vs program size, merged-assay scaling,
and the static-vs-replay comparison that justifies the analysis.

Four questions, answered over the repo's compiled assay corpus
(``tools/corpus.py``):

* **Intra-program cost** — how does one detector run scale with the
  instruction count of a serial program?
* **Merged scaling** — how does a merged analysis grow from 2 to 8
  concurrent assays (the scheduler-oracle workload)?
* **Static vs dynamic** — the detector's verdict covers *every*
  interleaving; sampling even a handful of interleavings through the
  dynamic certifier must cost more.  Hard assertion: one static merged
  analysis beats replaying ``REPLAY_SAMPLES`` interleavings.
* **Conflict-matrix cache** — the route-contention half asks the same
  ``ChannelTopology.conflicts`` question for every MHP transfer pair;
  the memoized matrix must beat recomputation and agree with it.

Results are written to ``benchmarks/BENCH_races.json``.
"""

import json
import pathlib
import sys
import time

import _report

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tools"))

from corpus import corpus_entries, interleave  # noqa: E402

from repro.analysis.certify import certify_schedule  # noqa: E402
from repro.analysis.races import analyze_races  # noqa: E402
from repro.compiler.passes import run_compile  # noqa: E402
from repro.machine.topology import ring_topology  # noqa: E402

OUT_PATH = pathlib.Path(__file__).resolve().parent / "BENCH_races.json"

#: pool order for the 2..8 merged-assay scaling curve.
MERGE_POOL = (
    "glucose", "glycomics", "enzyme", "figure2",
    "elisa", "bradford", "pcr-prep", "custom-example",
)
REPLAY_SAMPLES = 16
TIMING_REPEATS = 3


def best_of(fn, repeats=TIMING_REPEATS):
    best, result = float("inf"), None
    for __ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def test_race_detector_costs():
    programs, spec = {}, None
    for name, inputs in corpus_entries():
        compiled = run_compile(**inputs).compiled
        programs[name] = compiled.program
        spec = compiled.spec
    payload = {"intra": {}, "scaling": [], "static_vs_replay": {},
               "conflict_cache": {}}

    # -- intra-program: wall time vs instruction count -------------------
    for name, program in sorted(
        programs.items(), key=lambda item: len(item[1].instructions)
    ):
        seconds, report = best_of(lambda p=program: analyze_races(p, spec))
        payload["intra"][name] = {
            "instructions": len(program.instructions),
            "wall_s": seconds,
            "sensitive_pairs": report.extras["mhp"]["mhp_pairs"],
        }

    biggest = max(
        payload["intra"].values(), key=lambda row: row["instructions"]
    )
    _report.record(
        "race detector",
        f"largest single program ({biggest['instructions']} instructions)",
        None,
        f"{biggest['wall_s'] * 1e3:.1f} ms",
    )

    # -- merged-assay scaling curve (2..8 programs) ----------------------
    pool = [programs[name] for name in MERGE_POOL]
    for count in range(2, len(pool) + 1):
        seconds, report = best_of(
            lambda n=count: analyze_races(pool[:n], spec)
        )
        payload["scaling"].append({
            "programs": count,
            "wet_instructions": report.extras["mhp"]["wet_instructions"],
            "mhp_pairs": report.extras["mhp"]["mhp_pairs"],
            "wall_s": seconds,
        })
    _report.record(
        "race detector",
        f"merged scaling, {len(pool)} assays "
        f"({payload['scaling'][-1]['mhp_pairs']} MHP pairs)",
        None,
        f"{payload['scaling'][-1]['wall_s'] * 1e3:.1f} ms",
    )

    # -- static analysis vs sampled dynamic replay -----------------------
    a, b = programs["glucose"], programs["enzyme"]
    static_s, static_report = best_of(
        lambda: analyze_races([a, b], spec, share_storage=True)
    )
    patterns = [
        tuple((k >> bit) & 1 for bit in range(4))
        for k in range(REPLAY_SAMPLES)
    ]

    def replay_all():
        findings = 0
        for pattern in patterns:
            findings += len(
                certify_schedule(interleave(a, b, pattern), spec)
            )
        return findings

    replay_s, __ = best_of(replay_all)
    payload["static_vs_replay"] = {
        "pair": "glucose+enzyme",
        "static_wall_s": static_s,
        "static_findings": len(static_report.findings),
        "replay_samples": REPLAY_SAMPLES,
        "replay_wall_s": replay_s,
        "speedup": replay_s / static_s,
    }
    # the point of the static analysis: one run covers every interleaving,
    # while the dynamic certifier pays per sampled schedule.
    assert static_s < replay_s, (
        f"static analysis ({static_s:.4f}s) slower than replaying "
        f"{REPLAY_SAMPLES} interleavings ({replay_s:.4f}s)"
    )
    _report.record(
        "race detector",
        f"static vs {REPLAY_SAMPLES} replayed interleavings",
        "< 1x",
        f"{static_s / replay_s:.2f}x "
        f"({replay_s / static_s:.1f}x speedup)",
    )

    # -- conflict-matrix cache (ChannelTopology.conflicts memo) ----------
    topology = ring_topology(spec)
    locations = topology.locations()
    endpoints = list(zip(locations, locations[1:]))
    pairs = [
        (first, second)
        for i, first in enumerate(endpoints)
        for second in endpoints[i + 1:]
    ]

    def sweep():
        return sum(topology.conflicts(x, y) for x, y in pairs)

    cold_started = time.perf_counter()
    cold_conflicts = sweep()
    cold_s = time.perf_counter() - cold_started
    warm_s, warm_conflicts = best_of(sweep)
    assert warm_conflicts == cold_conflicts
    assert len(topology._conflict_cache) == len(pairs)
    assert warm_s < cold_s, (
        f"memoized sweep ({warm_s:.5f}s) not faster than cold "
        f"({cold_s:.5f}s) over {len(pairs)} pairs"
    )
    payload["conflict_cache"] = {
        "pairs": len(pairs),
        "cold_wall_s": cold_s,
        "warm_wall_s": warm_s,
        "speedup": cold_s / warm_s,
    }
    _report.record(
        "race detector",
        f"conflict-matrix cache ({len(pairs)} pairs)",
        "> 1x",
        f"{cold_s / warm_s:.1f}x",
    )

    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
