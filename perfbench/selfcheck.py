"""The benchmark's own checks (``python3 perfbench/run.py --self-check``).

1. ``BENCHMARK.json`` names exactly the workloads and metrics ``run.py``
   reports, with the same units and directions.
2. The exact counts (plan waste, program instructions, regeneration
   volume, simulated assay time) repeat exactly across two runs of the
   same seed, each in a fresh process.
3. The traced per-pass totals of one compile-cold sweep reconcile with
   the PassEvent stream ``run_compile`` emits for the same compiles.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run
import tracing
import workloads

EXACT = {
    "compile-cold": ("plan_waste_nl", "program_instructions"),
    "execute-faults": (
        "plan_waste_nl", "program_instructions", "regen_volume_nl",
        "sim_assay_s",
    ),
}
SEED = 7


def check_manifest() -> list[str]:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        manifest = json.load(f)
    problems = []
    names = [w["name"] for w in manifest["workloads"]]
    if names != list(run.WORKLOADS):
        problems.append(f"workloads {names} != {list(run.WORKLOADS)}")
    for key, table in (
        ("end_to_end", run.END_TO_END),
        ("per_layer", run.per_layer_names()),
    ):
        listed = {m["name"]: (m["unit"], m["better"]) for m in manifest[key]}
        if listed != table:
            problems.append(
                f"{key}: BENCHMARK.json and run.py disagree on "
                f"{sorted(set(listed.items()) ^ set(table.items()))}"
            )
    return problems


def detail_of(workload: str) -> dict:
    completed = subprocess.run(
        [
            sys.executable, os.path.join(run.HERE, "run.py"),
            "--workload", workload, "--seed", str(SEED), "--seconds", "1",
        ],
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    lines = completed.stdout.strip().splitlines()
    if not json.loads(lines[-1])["correct"]:
        raise AssertionError(f"{workload}: run reports incorrect output")
    return json.loads(lines[-2])


def check_exact_counts() -> list[str]:
    problems = []
    for workload, keys in EXACT.items():
        first, second = detail_of(workload), detail_of(workload)
        for key in keys:
            print(f"  {workload} {key}: {first[key]} / {second[key]}")
            if first[key] != second[key]:
                problems.append(f"{workload} {key} differs across runs")
    return problems


def check_reconcile() -> list[str]:
    workload = workloads.CompileCold(SEED)
    workload.setup()
    tracer = tracing.Tracer()
    tracer.install(tracing.COMPILE_WRAPS)
    try:
        phase = workload.measure(0, tracer)  # exactly one sweep
    finally:
        tracer.uninstall()
    for row in phase.detail["reconcile"]:
        print(
            f"  {row['pass']:10} runs {row['pass_runs']:4} calls "
            f"{row['span_calls']:4}  pass {row['pass_ms']:9.3f} ms  spans "
            f"{row['span_ms']:9.3f} ms  {'ok' if row['ok'] else 'MISMATCH'}"
        )
    if not phase.detail["reconcile_ok"]:
        return ["traced totals do not reconcile with the PassEvent stream"]
    return []


def main() -> int:
    problems = []
    for title, check in (
        ("manifest", check_manifest),
        ("exact counts across two runs", check_exact_counts),
        ("traced passes vs PassEvents", check_reconcile),
    ):
        print(f"{title}:")
        found = check()
        problems += found
        print("  ok" if not found else "\n".join(f"  FAIL {p}" for p in found))
    return 1 if problems else 0
