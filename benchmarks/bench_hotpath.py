"""Hot-path raw speed: the persistent pool.

Measured over the paper corpus and the generator families, with the
measured numbers (and the gate decision) written to
``benchmarks/BENCH_hotpath.json``:

* **persistent-worker batch pool** — a cold compile fleet with
  ``jobs=4`` on the warm process pool versus sequential.  Floor: >= 1.5x,
  asserted only when the host exposes >= 2 CPUs; on single-core hosts the
  measured number is still recorded together with the skip reason.

A ``pass_timings`` section rides along: per-pass wall time from the
:class:`~repro.compiler.passes.events.PassEventBus`, so ``--time-passes``
wins are visible in the JSON.
"""

import json
import os
import pathlib
import time

import _report

from repro.assays import enzyme, generators, glucose, paper_example
from repro.assays import extra
from repro.compiler.batch import BatchJob, compile_many
from repro.compiler.cache import PlanCache
from repro.compiler.passes import PassEventBus, run_compile
from repro.compiler.pool import pool_stats, shutdown_pool

OUT_PATH = pathlib.Path(__file__).resolve().parent / "BENCH_hotpath.json"

PARALLEL_SPEEDUP_FLOOR = 1.5
PARALLEL_JOBS = 4


def available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# persistent-worker batch pool
# ---------------------------------------------------------------------------
def fleet_jobs():
    jobs = [
        BatchJob("figure2", source=paper_example.SOURCE),
        BatchJob("glucose", source=glucose.SOURCE),
        BatchJob("enzyme", source=enzyme.SOURCE),
        BatchJob("elisa", source=extra.ELISA_SOURCE),
        BatchJob("bradford", source=extra.BRADFORD_SOURCE),
        BatchJob("pcr-prep", source=extra.PCR_PREP_SOURCE),
    ]
    for n in (2, 3, 4):
        jobs.append(BatchJob(f"enzyme-{n}", dag=generators.enzyme_n(n)))
    for n in (4, 6, 8, 10):
        jobs.append(
            BatchJob(f"dilution-{n}", dag=generators.serial_dilution(n))
        )
    for depth in (2, 3, 4):
        jobs.append(
            BatchJob(f"mixtree-{depth}", dag=generators.binary_mix_tree(depth))
        )
    return jobs


def test_persistent_pool_speedup():
    jobs = fleet_jobs()
    cpus = available_cpus()
    shutdown_pool()

    started = time.perf_counter()
    seq = compile_many(jobs, cache=PlanCache(), max_workers=1)
    wall_seq = time.perf_counter() - started
    assert seq.failed == 0

    started = time.perf_counter()
    par = compile_many(
        jobs, cache=PlanCache(), max_workers=PARALLEL_JOBS
    )
    wall_par = time.perf_counter() - started
    assert par.failed == 0

    speedup = wall_seq / wall_par if wall_par > 0 else float("inf")
    gate_met = cpus >= 2
    reason = (
        "asserted: host has >= 2 CPUs"
        if gate_met
        else f"skipped: host exposes {cpus} CPU(s); process fan-out "
        "cannot beat sequential on a single core"
    )
    _report.record(
        "hot path",
        f"cold fleet, jobs=1 -> jobs={PARALLEL_JOBS} (persistent pool)",
        f">= {PARALLEL_SPEEDUP_FLOOR}x on >= 2 CPUs",
        f"{speedup:.2f}x on {cpus} CPU(s)",
        note="" if gate_met else "assertion gated off: single CPU",
    )
    payload = {
        "jobs": len(jobs),
        "cpus": cpus,
        "sequential_wall_s": round(wall_seq, 6),
        "pool_wall_s": round(wall_par, 6),
        "parallel_speedup": round(speedup, 2),
        "pool": pool_stats(),
        "parallel_assertion_applied": gate_met,
        "parallel_assertion_reason": reason,
        "parallel_floor_met": speedup >= PARALLEL_SPEEDUP_FLOOR,
    }
    # recorded before the assertion, so a host that misses the floor
    # still writes the measurement and the gate decision
    _merge_payload("persistent_pool", payload)
    if gate_met:
        assert speedup >= PARALLEL_SPEEDUP_FLOOR, (
            f"persistent-pool speedup {speedup:.2f}x below the "
            f"{PARALLEL_SPEEDUP_FLOOR}x floor on {cpus} CPUs"
        )


# ---------------------------------------------------------------------------
# pass-event surface: where --time-passes shows the wins
# ---------------------------------------------------------------------------
def test_pass_timings_surface():
    """One instrumented compile per paper assay; per-pass wall time
    lands in the JSON."""
    totals: dict[str, dict] = {}
    for source in (paper_example.SOURCE, glucose.SOURCE, enzyme.SOURCE):
        bus = PassEventBus()
        run_compile(source=source, bus=bus)
        for event in bus.events:
            record = totals.setdefault(
                event.name, {"runs": 0, "wall_ms": 0.0}
            )
            if event.status != "skipped":
                record["runs"] += 1
                record["wall_ms"] += event.wall_s * 1000
    for record in totals.values():
        record["wall_ms"] = round(record["wall_ms"], 4)
    _merge_payload("pass_timings", {"per_pass": dict(sorted(totals.items()))})
    _finalize_payload()


# ---------------------------------------------------------------------------
# JSON assembly: each test contributes one section
# ---------------------------------------------------------------------------
_SECTIONS: dict[str, dict] = {}


def _merge_payload(key: str, section: dict) -> None:
    _SECTIONS[key] = section


def _finalize_payload() -> None:
    payload = {
        "thresholds": {"parallel_speedup_floor": PARALLEL_SPEEDUP_FLOOR},
        **_SECTIONS,
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
