"""Hot-path raw speed: incremental LP retries, persistent pool.

Two fronts, measured over the paper corpus and the generator families,
with the measured numbers (and every gate decision) written to
``benchmarks/BENCH_hotpath.json``:

* **incremental warm-started LP** — the retry loop's
  :class:`~repro.core.lpmodel.IncrementalLPBuilder` alternating between
  EnzymeAssay6 and its cascaded rewrite, warm (one builder kept across
  rounds) against cold (a fresh builder and fresh per-DAG caches each
  round, what every hierarchy compile starts with).  Floor: >= 1.5x,
  warm models identical to cold ones.
* **persistent-worker batch pool** — a cold compile fleet with
  ``jobs=4`` on the warm process pool versus sequential.  Floor: >= 1.5x,
  asserted only when the host exposes >= 2 CPUs; on single-core hosts the
  measured number is still recorded together with the skip reason.

A ``pass_timings`` section rides along: per-pass wall time from the
:class:`~repro.compiler.passes.events.PassEventBus` plus the LP pass's
row-bundle reuse notes, so ``--time-passes`` wins are visible in the JSON.
"""

import json
import os
import pathlib
import time

import numpy as np

import _report

from repro.assays import enzyme, generators, glucose, paper_example
from repro.assays import extra
from repro.compiler.batch import BatchJob, compile_many
from repro.compiler.cache import PlanCache
from repro.compiler.passes import PassEventBus, run_compile
from repro.compiler.pool import pool_stats, shutdown_pool
from repro.core.cascading import cascade_extreme_mixes
from repro.core.limits import PAPER_LIMITS
from repro.core.lpmodel import IncrementalLPBuilder

OUT_PATH = pathlib.Path(__file__).resolve().parent / "BENCH_hotpath.json"

LP_RETRY_SPEEDUP_FLOOR = 1.5
PARALLEL_SPEEDUP_FLOOR = 1.5
PARALLEL_JOBS = 4


def available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# front 1: incremental warm-started LP
# ---------------------------------------------------------------------------
def models_equal(a, b) -> None:
    assert list(a.var_index.items()) == list(b.var_index.items())
    assert np.array_equal(a.objective, b.objective)
    for full, inc in ((a.a_ub, b.a_ub), (a.a_eq, b.a_eq)):
        assert np.array_equal(full.indptr, inc.indptr)
        assert np.array_equal(full.indices, inc.indices)
        assert np.array_equal(full.data, inc.data)
    assert np.array_equal(a.b_ub, b.b_ub)
    assert np.array_equal(a.b_eq, b.b_eq)
    assert a.bounds == b.bounds
    assert a.rows_ub == b.rows_ub and a.rows_eq == b.rows_eq


def cold_build(dag):
    """What the first round of a hierarchy compile pays: a fresh builder
    over a DAG whose per-DAG LP caches are not built yet."""
    dag._derived.clear()
    return IncrementalLPBuilder(PAPER_LIMITS).build(dag)


def test_incremental_lp_retry_speedup():
    """The Figure 6 retry shape: solve, transform, solve again.

    Alternating between EnzymeAssay6 and its cascaded rewrite is the
    worst honest case for the builder — every round switches DAGs, so
    only genuinely shared row bundles are reused.
    """
    base = enzyme.build_dag(6)
    cascaded, __ = cascade_extreme_mixes(base, PAPER_LIMITS)
    sequence = [base, cascaded] * 3

    builder = IncrementalLPBuilder(PAPER_LIMITS)
    for dag in (base, cascaded, base, cascaded):
        models_equal(cold_build(dag), builder.build(dag))

    reps = 40
    started = time.perf_counter()
    for _ in range(reps):
        for dag in sequence:
            cold_build(dag)
    cold_s = time.perf_counter() - started
    for dag in sequence:
        builder.build(dag)  # re-prime the per-DAG caches cold_build dropped
    started = time.perf_counter()
    for _ in range(reps):
        for dag in sequence:
            builder.build(dag)
    warm_s = time.perf_counter() - started
    stats = builder.last_stats
    speedup = cold_s / warm_s
    _report.record(
        "hot path",
        "LP retry rounds, warm vs cold builds",
        f">= {LP_RETRY_SPEEDUP_FLOOR}x",
        f"{speedup:.2f}x ({stats['reused']}/{stats['nodes']} bundles "
        "reused)",
    )
    payload = {
        "reps": reps,
        "rounds_per_rep": len(sequence),
        "cold_ms": round(cold_s * 1000 / reps, 4),
        "warm_ms": round(warm_s * 1000 / reps, 4),
        "speedup": round(speedup, 2),
        "bundles_reused": stats["reused"],
        "bundles_total": stats["nodes"],
        "model_identical": True,
    }
    assert speedup >= LP_RETRY_SPEEDUP_FLOOR, (
        f"warm LP retry speedup {speedup:.2f}x below the "
        f"{LP_RETRY_SPEEDUP_FLOOR}x floor"
    )
    _merge_payload("incremental_lp", payload)


# ---------------------------------------------------------------------------
# front 2: persistent-worker batch pool
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
    }
    if gate_met:
        assert speedup >= PARALLEL_SPEEDUP_FLOOR, (
            f"persistent-pool speedup {speedup:.2f}x below the "
            f"{PARALLEL_SPEEDUP_FLOOR}x floor on {cpus} CPUs"
        )
    _merge_payload("persistent_pool", payload)


# ---------------------------------------------------------------------------
# pass-event surface: where --time-passes shows the wins
# ---------------------------------------------------------------------------
def test_pass_timings_surface():
    """One instrumented compile per paper assay; LP reuse notes ride on
    the ``lp`` pass events and land in the JSON."""
    totals: dict[str, dict] = {}
    lp_notes: list[str] = []
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
            if event.name == "lp" and "row bundle" in event.detail:
                lp_notes.append(event.detail)
    for record in totals.values():
        record["wall_ms"] = round(record["wall_ms"], 4)
    _merge_payload(
        "pass_timings",
        {"per_pass": dict(sorted(totals.items())), "lp_reuse": lp_notes},
    )
    _finalize_payload()


# ---------------------------------------------------------------------------
# JSON assembly: each test contributes one section
# ---------------------------------------------------------------------------
_SECTIONS: dict[str, dict] = {}


def _merge_payload(key: str, section: dict) -> None:
    _SECTIONS[key] = section


def _finalize_payload() -> None:
    payload = {
        "thresholds": {
            "lp_retry_speedup_floor": LP_RETRY_SPEEDUP_FLOOR,
            "parallel_speedup_floor": PARALLEL_SPEEDUP_FLOOR,
        },
        **_SECTIONS,
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
