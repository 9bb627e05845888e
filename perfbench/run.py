"""The repository benchmark: one workload per run, every metric on one line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload compile-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --compare BEFORE.txt AFTER.txt

``--trace 0`` measures the end-to-end metrics with nothing patched;
``--trace 1`` measures half the time untraced and half traced, and
reports the per-layer metrics plus the tracing overhead.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds each workload's
detail (its own metric names, exact counts, checks, why each input is
there).  See ``perfbench/README.md``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("compile-cold", "serve-mixed", "execute-faults")
#: set-ups per run: this process plus fresh processes that only set up.
SETUP_REPEATS = 3

#: name -> (unit, better); must match BENCHMARK.json (the self-check
#: asserts it).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "op_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "ok_share": ("share", "higher"),
    "fluid_waste_nl": ("nl", "lower"),
    "program_instructions": ("count", "lower"),
}

_MS_LAYERS = (
    "lang.parse", "lang.unroll", "ir.build_dag", "core.dagsolve",
    "core.dagsolve_ref", "core.replicate", "core.lp.build", "core.lp.solve",
    "core.cascade", "core.round", "analysis.certify", "compiler.codegen",
    "compiler.cache.get", "compiler.cache.put", "core.fingerprint",
    "core.serde", "runtime.executor", "runtime.regeneration",
    "machine.execute",
)
PER_LAYER = {f"{name}.ms": ("ms", "lower") for name in _MS_LAYERS}
PER_LAYER.update(
    {
        "lang.unroll.wet_ops": ("count", "lower"),
        "ir.dag.nodes": ("count", "lower"),
        "core.dagsolve.calls": ("count", "lower"),
        "core.dagsolve_ref.calls": ("count", "lower"),
        "core.replicate.rewrites": ("count", "lower"),
        "core.lp.calls": ("count", "lower"),
        "core.lp.bundle_reuse": ("share", "higher"),
        "core.cascade.rewrites": ("count", "lower"),
        "core.hierarchy.rounds": ("count", "lower"),
        "core.hierarchy.first_try_share": ("share", "higher"),
        "analysis.certify.findings": ("count", "lower"),
        "compiler.codegen.instructions": ("count", "lower"),
        "compiler.cache.hit_ratio": ("share", "higher"),
        "service.queue_wait_ms": ("ms", "lower"),
        "service.run_ms": ("ms", "lower"),
        "service.client_overhead_ms": ("ms", "lower"),
        "service.coalesced": ("count", "higher"),
        "compiler.pool.tasks": ("count", "lower"),
        "compiler.pool.wait_ms": ("ms", "lower"),
        "runtime.regenerations": ("count", "lower"),
        "runtime.transient_retries": ("count", "lower"),
        "machine.execute.calls": ("count", "lower"),
        "machine.faults.injected": ("count", "lower"),
        "trace.overhead_pct": ("%", "lower"),
        "trace.spans_per_op": ("count", "lower"),
    }
)


def per_layer_names() -> dict:
    names = dict(PER_LAYER)
    for name in workloads.SERVICE_PASSES:
        names[f"service.pass.{name}.ms"] = ("ms", "lower")
    return names


def host_fingerprint() -> dict:
    import scipy

    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "scipy": scipy.__version__,
    }


def build(name: str, seed: int, seconds: float):
    if name == "compile-cold":
        return workloads.CompileCold(seed)
    if name == "execute-faults":
        return workloads.ExecuteFaults(seed)
    return workloads.ServeMixed(seed, seconds)


def child_setup_s(args) -> float:
    """Set-up time of a fresh process that sets up and exits."""
    completed = subprocess.run(
        [
            sys.executable, os.path.abspath(__file__), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"]


def emit(detail: dict, correct: bool, attempted: int, failed: int,
         metrics: dict, units: dict) -> None:
    print(json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    name: {"value": metrics[name], "unit": units[name][0]}
                    for name in units
                },
            }
        )
    )


def run_untraced(args) -> int:
    workload = build(args.workload, args.seed, args.seconds)
    try:
        workload.setup()
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setups = [setup_s] + [
            child_setup_s(args) for __ in range(SETUP_REPEATS - 1)
        ]
        phase = workload.measure(args.seconds)
        peak_rss_mb = workload.peak_rss_mb()
    finally:
        workload.close()
    metrics = dict(phase.end_to_end)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = peak_rss_mb
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "host": host_fingerprint(),
        "setup_s_runs": setups,
        **phase.detail,
    }
    emit(detail, phase.correct, phase.attempted, phase.failed, metrics,
         END_TO_END)
    return 0


def run_traced(args) -> int:
    half = args.seconds / 2
    workload = build(args.workload, args.seed, half)
    tracer = tracing.Tracer()
    try:
        workload.setup()
        untraced = workload.measure(half)
        if args.workload == "serve-mixed":
            # the traced half runs against a second, traced daemon
            workload.setup(trace=True)
            traced = workload.measure(half)
        else:
            wraps = tracing.COMPILE_WRAPS
            if args.workload == "execute-faults":
                wraps = tracing.COMPILE_WRAPS + tracing.RUNTIME_WRAPS
            tracer.install(wraps)
            try:
                traced = workload.measure(half, tracer)
            finally:
                tracer.uninstall()
    finally:
        workload.close()
    names = per_layer_names()
    metrics = {name: 0.0 for name in names}
    metrics.update({k: v for k, v in traced.layers.items() if k in names})
    base = untraced.end_to_end["op_ms"]
    metrics["trace.overhead_pct"] = (
        traced.end_to_end["op_ms"] / base - 1
    ) * 100
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "host": host_fingerprint(),
        "untraced": untraced.end_to_end,
        "traced": traced.end_to_end,
        **{k: v for k, v in traced.detail.items() if k.startswith("reconcile")},
    }
    correct = untraced.correct and traced.correct
    correct = correct and traced.detail.get("reconcile_ok", True)
    emit(
        detail, correct, untraced.attempted + traced.attempted,
        untraced.failed + traced.failed, metrics, names,
    )
    return 0


def compare(before_path: str, after_path: str) -> int:
    """Per-layer deltas between two saved traced runs (their stdout)."""

    def last_metrics(path: str) -> dict:
        with open(path, encoding="utf-8") as handle:
            lines = [line for line in handle.read().splitlines() if line]
        return json.loads(lines[-1])["metrics"]

    before, after = last_metrics(before_path), last_metrics(after_path)
    print(f"{'metric':40} {'before':>12} {'after':>12} {'delta':>12} {'%':>8}")
    for name in sorted(set(before) | set(after)):
        a = before.get(name, {}).get("value")
        b = after.get(name, {}).get("value")
        if a is None or b is None:
            print(f"{name:40} {a!s:>12} {b!s:>12}")
            continue
        pct = f"{(b - a) / a * 100:+.1f}" if a else "-"
        unit = after[name]["unit"]
        print(f"{name:40} {a:12.4f} {b:12.4f} {b - a:+12.4f} {pct:>8}  {unit}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--self-check", action="store_true",
                        help="check exact counts and trace reconciliation")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="per-layer deltas between two saved traced runs")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.self_check:
        import selfcheck

        return selfcheck.main()
    if args.workload is None:
        parser.error("--workload is required")
    if args.trace:
        return run_traced(args)
    return run_untraced(args)


if __name__ == "__main__":
    sys.exit(main())
