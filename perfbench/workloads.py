"""The three workloads: set-up, the measured loop, and their checks.

Each workload object is built from the seed, pays its set-up in
:meth:`setup` (imports, warm-up, daemon start, set-up compiles) and then
measures in :meth:`measure` for a number of seconds.  ``measure`` returns
a :class:`Phase` with the raw samples; ``run.py`` turns phases into the
reported metrics.  Every workload checks its own outputs: a wrong output
clears ``Phase.correct`` and counts as a failed operation.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

import hostspeed
import inputs
import tracing
from hostspeed import HostClock

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "_out")


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------
def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class Phase:
    """The outcome of one measured phase of a workload."""

    #: the generic end-to-end metrics (see README.md for each workload's
    #: meaning), without set-up time.
    end_to_end: dict[str, float]
    #: the workload's own names for the same numbers, plus exact counts.
    detail: dict[str, Any]
    attempted: int
    failed: int
    correct: bool
    #: per-layer metrics (per compile, job or scenario) of a traced phase.
    layers: dict[str, float] = field(default_factory=dict)


def _ops_layers(
    totals: dict[str, dict[str, float]], ops: int, names: list[str]
) -> dict[str, float]:
    """Self ms and calls per op for each listed span name."""
    layers: dict[str, float] = {}
    for name in names:
        entry = totals.get(name, {})
        layers[f"{name}.ms"] = entry.get("self_ms", 0.0) / ops
        layers[f"{name}.calls"] = entry.get("calls", 0) / ops
    return layers


# ---------------------------------------------------------------------------
# compile-cold
# ---------------------------------------------------------------------------
#: PassEvent name -> the spans its run() reaches, and whether each run
#: that executes makes exactly one call into the first of them.
RECONCILE = (
    ("parse", ("lang.parse",), False),
    ("unroll", ("lang.unroll",), True),
    ("build-dag", ("ir.build_dag",), False),
    ("dagsolve", ("core.dagsolve",), True),
    ("lp", ("core.lp.build", "core.lp.solve"), True),
    ("cascade", ("core.cascade",), False),
    ("replicate", ("core.replicate",), True),
    ("round", ("core.round",), True),
    ("codegen", ("compiler.codegen",), True),
    ("certify", ("analysis.certify",), True),
)

COMPILE_LAYERS = [
    "lang.parse", "lang.unroll", "ir.build_dag", "core.dagsolve",
    "core.dagsolve_ref", "core.replicate", "core.lp.build", "core.lp.solve",
    "core.cascade", "core.round", "analysis.certify", "compiler.codegen",
]


def reconcile(
    totals: dict[str, dict[str, float]], events: list
) -> tuple[bool, list[dict[str, Any]]]:
    """Check traced per-pass totals against the PassEvent stream.

    A wrapped call runs inside its pass, so its time can never exceed the
    pass's wall time; where each run of the pass makes exactly one call,
    the counts must also agree.
    """
    ok = True
    rows = []
    for pass_name, span_names, one_to_one in RECONCILE:
        mine = [e for e in events if e.name == pass_name]
        # a pass whose run() found nothing to do reports "skipped" but
        # still took time; only "ok"/"failed" runs reach the layer
        pass_ms = sum(e.wall_s for e in mine) * 1000
        runs = sum(1 for e in mine if e.status in ("ok", "failed"))
        entries = [totals.get(n, {"calls": 0, "total_ms": 0.0}) for n in span_names]
        span_ms = sum(entry["total_ms"] for entry in entries)
        calls = entries[0]["calls"]
        count_ok = calls == runs if one_to_one else True
        time_ok = span_ms <= pass_ms * 1.000001 + 0.001
        ok = ok and count_ok and time_ok
        rows.append(
            {
                "pass": pass_name,
                "spans": list(span_names),
                "pass_runs": runs,
                "span_calls": calls,
                "pass_ms": round(pass_ms, 3),
                "span_ms": round(span_ms, 3),
                "coverage": round(span_ms / pass_ms, 4) if pass_ms else None,
                "ok": count_ok and time_ok,
            }
        )
    return ok, rows


class CompileCold:
    """Closed loop, one cold ``run_compile(..., certify=True)`` at a time."""

    name = "compile-cold"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        from repro.compiler.diagnostics import severity_counts
        from repro.compiler.passes import PassEventBus, run_compile
        from repro.core.hierarchy import VolumeManager
        from repro.core.report import plan_waste_breakdown
        from repro.machine.spec import AQUACORE_SPEC, AQUACORE_XL_SPEC

        self._run_compile = run_compile
        self._bus = PassEventBus
        self._specs = {
            spec.name: spec for spec in (AQUACORE_SPEC, AQUACORE_XL_SPEC)
        }
        self._manager = VolumeManager
        self._errors = lambda c: severity_counts(c.diagnostics.items)["error"]
        self.corpus = inputs.compile_corpus(self.seed)
        # the warm-up sweep: pays lazy imports (certify's first call) and
        # records each input's reference listing and its exact counts
        self.reference: list[str] = []
        self.waste = Fraction(0)
        self.instructions = 0
        for entry in self.corpus:
            ctx, listing, __, ___ = self._compile(entry)
            compiled = ctx.compiled
            if self._errors(compiled):
                raise RuntimeError(f"{entry.name}: certify reports errors")
            self.reference.append(listing)
            self.instructions += len(compiled.program.instructions)
            if compiled.is_static:
                self.waste += plan_waste_breakdown(
                    compiled.plan, compiled.assignment
                ).excess

    def _compile(self, entry: inputs.CompileInput, bus=None):
        kwargs = entry.make()
        spec = self._specs[entry.machine]
        manager = self._manager(spec.limits, objective=entry.objective)
        start, cpu = time.perf_counter(), time.process_time()
        ctx = self._run_compile(
            **kwargs, spec=spec, manager=manager, certify=True, bus=bus
        )
        listing = ctx.compiled.listing()
        return (
            ctx, listing, time.perf_counter() - start,
            time.process_time() - cpu,
        )

    def measure(self, seconds: float, tracer=None) -> Phase:
        rng = random.Random(f"compile-order|{self.seed}")
        order = list(range(len(self.corpus)))
        per_input: list[list[float]] = [[] for __ in self.corpus]
        scaled: list[list[float]] = [[] for __ in self.corpus]
        sweeps: list[float] = []
        scaled_sweeps: list[float] = []
        clock = HostClock()
        attempted = failed = 0
        nodes = rounds = first_try = static = 0
        events: list = []
        deadline = time.perf_counter() + seconds
        while not sweeps or time.perf_counter() < deadline:
            rng.shuffle(order)
            sweep_s = scaled_s = 0.0
            for index in order:
                entry = self.corpus[index]
                bus = self._bus() if tracer is not None else None
                if tracer is not None:
                    with tracer.span("compile"):
                        ctx, listing, elapsed, cpu = self._compile(entry, bus)
                    events.extend(bus.events)
                else:
                    ctx, listing, elapsed, cpu = self._compile(entry)
                attempted += 1
                sweep_s += elapsed
                per_input[index].append(elapsed * 1000)
                cpu = clock.scale(cpu)
                scaled_s += cpu
                scaled[index].append(cpu * 1000)
                compiled = ctx.compiled
                if self._errors(compiled) or listing != self.reference[index]:
                    failed += 1
                nodes += ctx.dag.node_count
                plan = compiled.plan
                if plan is not None and plan.attempts:
                    static += 1
                    rounds += max(a.round for a in plan.attempts)
                    first_try += plan.attempts[0].succeeded
            sweeps.append(sweep_s)
            scaled_sweeps.append(scaled_s)
        medians = [statistics.median(times) for times in per_input]
        scaled_medians = [statistics.median(times) for times in scaled]
        sweep_s = statistics.median(sweeps)
        ok_share = (attempted - failed) / attempted
        phase = Phase(
            end_to_end={
                "op_ms": geomean(scaled_medians),
                "op_tail_ms": max(scaled_medians),
                "throughput_per_s":
                    len(self.corpus) / statistics.median(scaled_sweeps),
                "ok_share": ok_share,
                "fluid_waste_nl": float(self.waste),
                "program_instructions": self.instructions,
            },
            detail={
                "compile_ms_geomean": geomean(medians),
                "compile_sweep_s": sweep_s,
                "compile_ok_share": ok_share,
                "host_probe_ms": clock.probe_ms(),
                "plan_waste_nl": float(self.waste),
                "program_instructions": self.instructions,
                "sweeps": len(sweeps),
                "inputs": len(self.corpus),
                "compiles": attempted,
                "median_ms_by_input": {
                    f"{e.name}/{e.objective}": round(m, 3)
                    for e, m in zip(self.corpus, medians)
                },
                "why": {
                    f"{e.name}/{e.objective}": e.why for e in self.corpus
                },
            },
            attempted=attempted,
            failed=failed,
            correct=failed == 0,
        )
        if tracer is not None:
            totals = tracing.layer_totals(tracer.spans)
            layers = _ops_layers(totals, attempted, COMPILE_LAYERS)
            layers["trace.spans_per_op"] = len(tracer.spans) / attempted
            get = lambda name, key: totals.get(name, {}).get(key, 0)  # noqa: E731
            layers.update(
                {
                    "lang.unroll.wet_ops": get("lang.unroll", "wet_ops") / attempted,
                    "ir.dag.nodes": nodes / attempted,
                    "core.replicate.rewrites":
                        get("core.replicate", "rewrites") / attempted,
                    "core.cascade.rewrites":
                        get("core.cascade", "rewrites") / attempted,
                    "core.lp.calls": get("core.lp.solve", "calls") / attempted,
                    "core.lp.bundle_reuse": (
                        get("core.lp.build", "reused")
                        / max(get("core.lp.build", "nodes"), 1)
                    ),
                    "core.hierarchy.rounds": rounds / max(static, 1),
                    "core.hierarchy.first_try_share": first_try / max(static, 1),
                    "analysis.certify.findings":
                        get("analysis.certify", "findings") / attempted,
                    "compiler.codegen.instructions":
                        get("compiler.codegen", "instructions") / attempted,
                }
            )
            reconciled, rows = reconcile(totals, events)
            phase.detail["reconcile"] = rows
            phase.detail["reconcile_ok"] = reconciled
            phase.layers = layers
        return phase

    def peak_rss_mb(self) -> float:
        return own_peak_rss_mb()

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# execute-faults
# ---------------------------------------------------------------------------
#: scenarios per assay per pass; scenario k uses fault seed k.
SCENARIOS = 10
#: an enzyme scenario costs ~40x the others; fewer of them keep each timed
#: call under ~2 s, short enough for its bracketing speed probes.
SCENARIOS_BY_ASSAY = {"enzyme": 4}


def achieved_ratio_error(compiled, result) -> Fraction:
    """Worst relative deviation of executed mix shares from the source's.

    Sums the volume each executed ``move``/``input`` actually carried
    along its DAG edge and compares every mix's achieved input shares
    with the declared fractions.
    """
    moved: dict[tuple[str, str], Fraction] = {}
    instructions = compiled.program.instructions
    for event in result.trace.events:
        if event.index < 0 or event.volume is None:
            continue
        edge = instructions[event.index].edge
        if edge is not None:
            moved[edge] = moved.get(edge, Fraction(0)) + event.volume
    dag = compiled.final_dag
    worst = Fraction(0)
    for node in dag.nodes():
        inbound = [e for e in dag.in_edges(node.id) if not e.is_excess]
        if len(inbound) < 2:
            continue
        total = sum((moved.get(e.key, Fraction(0)) for e in inbound), Fraction(0))
        if total == 0:
            continue  # a guarded branch the run did not take
        for edge in inbound:
            share = moved.get(edge.key, Fraction(0)) / total
            worst = max(worst, abs(share - edge.fraction) / edge.fraction)
    return worst


class ExecuteFaults:
    """Seeded fault scenarios through ``stress_compiled`` on set-up plans."""

    name = "execute-faults"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        from repro.compiler.passes import run_compile
        from repro.core.report import plan_waste_breakdown
        from repro.core.rounding import max_ratio_error, round_assignment
        from repro.runtime.executor import AssayExecutor
        from repro.runtime.stress import stress_compiled

        self._stress = stress_compiled
        self.compiled = {}
        self.sim_seconds = Fraction(0)
        self.plan_waste = Fraction(0)
        self.instructions = 0
        self.ratio_checks: dict[str, dict[str, float]] = {}
        for name, source in inputs.execute_sources().items():
            compiled = run_compile(source=source).compiled
            self.compiled[name] = compiled
            self.instructions += len(compiled.program.instructions)
            # fault-free run: warm-up plus the product check against the
            # source mix ratios, within the section 4.2 rounding bound
            executor = AssayExecutor(compiled)
            result = executor.run()
            if not result.succeeded:
                raise RuntimeError(f"{name}: fault-free run failed")
            self.sim_seconds += result.trace.total_seconds
            if compiled.is_static:
                bound = max_ratio_error(compiled.assignment)
                self.plan_waste += plan_waste_breakdown(
                    compiled.plan, compiled.assignment
                ).excess
            else:
                bound = max(
                    max_ratio_error(round_assignment(a))
                    for a in executor.resolver.session.assignments.values()
                )
            achieved = achieved_ratio_error(compiled, result)
            self.ratio_checks[name] = {
                "achieved": float(achieved),
                "bound": float(bound),
                "ok": achieved <= bound,
            }

    def measure(self, seconds: float, tracer=None) -> Phase:
        rng = random.Random(f"execute-order|{self.seed}")
        names = list(self.compiled)
        per_scenario_ms: dict[str, list[float]] = {n: [] for n in names}
        scaled_ms: dict[str, list[float]] = {n: [] for n in names}
        first: dict[str, tuple] = {}
        passes = attempted = survived = failed = 0
        total_s = scaled_s = 0.0
        clock = HostClock()
        regenerations = retries = injected = 0
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline:
            rng.shuffle(names)
            for name in names:
                seeds = SCENARIOS_BY_ASSAY.get(name, SCENARIOS)
                start, cpu = time.perf_counter(), time.process_time()
                report = self._stress(self.compiled[name], seeds=seeds)
                elapsed = time.perf_counter() - start
                cpu = time.process_time() - cpu
                total_s += elapsed
                per_scenario_ms[name].append(elapsed * 1000 / seeds)
                cpu = clock.scale(cpu)
                scaled_s += cpu
                scaled_ms[name].append(cpu * 1000 / seeds)
                scenarios = report.scenarios
                attempted += len(scenarios)
                good = [s for s in scenarios if s.survived and s.readings_match]
                survived += len(good)
                # a run that completes with readings unlike the fault-free
                # run is a wrong output, not a clean failure
                failed += sum(
                    1 for s in scenarios if s.survived and not s.readings_match
                )
                regenerations += sum(s.regenerations for s in scenarios)
                retries += sum(s.transient_retries for s in scenarios)
                injected += sum(
                    sum(s.faults_injected.values()) for s in scenarios
                )
                outcome = (
                    len(good),
                    sum((s.regeneration_volume for s in scenarios), Fraction(0)),
                    report.baseline_wet_instructions,
                )
                # the same plans under the same fault seeds must repeat
                if first.setdefault(name, outcome) != outcome:
                    failed += 1
            passes += 1
        regen_volume = sum((o[1] for o in first.values()), Fraction(0))
        medians = [statistics.median(v) for v in scaled_ms.values()]
        checks_ok = all(c["ok"] for c in self.ratio_checks.values())
        survival = survived / attempted
        phase = Phase(
            end_to_end={
                "op_ms": geomean(medians),
                "op_tail_ms": max(medians),
                "throughput_per_s": attempted / scaled_s,
                "ok_share": survival,
                "fluid_waste_nl": float(self.plan_waste + regen_volume),
                "program_instructions": self.instructions,
            },
            detail={
                "exec_scenarios_per_s": attempted / total_s,
                "exec_survival_share": survival,
                "host_probe_ms": clock.probe_ms(),
                "regen_volume_nl": float(regen_volume),
                "plan_waste_nl": float(self.plan_waste),
                "program_instructions": self.instructions,
                "sim_assay_s": float(self.sim_seconds),
                "passes": passes,
                "scenarios": attempted,
                "ratio_checks": self.ratio_checks,
                "median_scenario_ms_by_assay": {
                    n: round(statistics.median(v), 3)
                    for n, v in per_scenario_ms.items()
                },
                "why": inputs.EXECUTE_WHY,
            },
            attempted=attempted,
            failed=failed,
            correct=failed == 0 and checks_ok,
        )
        if tracer is not None:
            totals = tracing.layer_totals(tracer.spans)
            runs = totals.get("runtime.executor", {}).get("calls", 0) or 1
            layers = _ops_layers(
                totals, runs,
                ["runtime.executor", "runtime.regeneration", "machine.execute",
                 "core.dagsolve_ref"],
            )
            layers["trace.spans_per_op"] = len(tracer.spans) / runs
            layers.update(
                {
                    "runtime.regenerations": regenerations / attempted,
                    "runtime.transient_retries": retries / attempted,
                    "machine.faults.injected": injected / attempted,
                }
            )
            phase.layers = layers
        return phase

    def peak_rss_mb(self) -> float:
        return own_peak_rss_mb()

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------
#: offered load of the open loop (jobs per second) and the latency limit
#: a job must meet to count as served.
RATE = 12.0
LIMIT_MS = 1000.0
#: pause between two polling sweeps over the outstanding jobs (the
#: repository's own ``ServiceClient.wait`` polls every 10 ms).
POLL_S = 0.01
#: variant jobs whose artifacts are re-checked against an in-process compile.
SAMPLED_VARIANTS = 6
TERMINAL = ("done", "failed", "cancelled")


class Daemon:
    """``repro serve --jobs 2`` in its own process group, with probes.

    ``daemon.py`` runs the ``repro`` CLI with a speed-probe thread (and,
    traced, the layer wrappers) and writes both to ``out_path`` when the
    daemon exits; :meth:`stop` reads them into :attr:`output`.
    """

    def __init__(self, out_path: str, trace: bool) -> None:
        self.out_path = out_path
        self.trace = trace
        self.proc: subprocess.Popen | None = None
        self.url = ""
        self.output: dict[str, list] = {}

    def start(self) -> None:
        command = [sys.executable, os.path.join(HERE, "daemon.py"), self.out_path]
        if self.trace:
            command.append("--trace")
        command += ["serve", "--jobs", "2", "--port", "0"]
        root = os.path.dirname(HERE)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        self.proc = subprocess.Popen(
            command,
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        box: dict[str, str] = {}
        reader = threading.Thread(
            target=lambda: box.setdefault("line", self.proc.stdout.readline())
        )
        reader.start()
        reader.join(timeout=60)
        line = box.get("line", "")
        if "http://" not in line:
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.url = line.strip().split()[-1]

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        # pool workers share the daemon's process group; end them all
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                break
            if proc.poll() is None:
                proc.wait(timeout=5)
            time.sleep(0.05)
        proc.wait(timeout=5)
        proc.stdout.close()
        if os.path.exists(self.out_path):
            with open(self.out_path, encoding="utf-8") as handle:
                self.output = json.load(handle)
            os.remove(self.out_path)


class ServeMixed:
    """Open-loop compile jobs from two tenants against a served daemon."""

    name = "serve-mixed"

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.schedule = inputs.served_schedule(seed, RATE, seconds)
        self.daemon: Daemon | None = None

    def setup(self, trace: bool = False) -> None:
        from repro.compiler.passes import front_end
        from repro.service.client import ServiceClient, ServiceError

        self._service_error = ServiceError
        # every distinct source parses before anything is timed
        for source in {job.source for job in self.schedule}:
            front_end(source=source)
        os.makedirs(OUT_DIR, exist_ok=True)
        self.daemon = Daemon(
            os.path.join(OUT_DIR, f"daemon-{os.getpid()}-{int(trace)}.json"),
            trace,
        )
        self.daemon.start()
        self.clients = {
            tenant: ServiceClient(self.daemon.url, tenant=tenant, timeout=30)
            for tenant in inputs.TENANTS
        }
        deadline = time.monotonic() + 60
        while True:
            try:
                self.clients["alpha"].healthz()
                break
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.02)
        # warm-up: prime both tenants' caches with the hot set and start
        # the pool workers with a few cold variants outside the schedule
        self.warm_jobs: dict[tuple[str, str], tuple[str, str]] = {}
        warm_variants = inputs.source_variants(self.seed + 1_000_003)
        for tenant, client in self.clients.items():
            hot = [
                (name, objective, self._submit(client, name, source, objective))
                for name, source, objective in inputs.hot_set()
            ]
            cold = [
                (name, "default", self._submit(client, name, source, "default"))
                for name, source in itertools.islice(warm_variants, 2)
            ]
            for name, objective, job in hot + cold:
                final = client.wait(job["id"], timeout=60)
                if final["state"] != "done":
                    raise RuntimeError(f"warm-up job {name} {final['state']}")
            for name, objective, job in hot:
                self.warm_jobs.setdefault((name, objective), (tenant, job["id"]))

    @staticmethod
    def _submit(client, name: str, source: str, objective: str):
        options = {"objective": objective} if objective != "default" else None
        return client.submit("compile", source, name=name, options=options)

    def measure(self, seconds: float, tracer=None) -> Phase:
        client = self.clients["alpha"]
        before = client.metrics()
        ticks = hostspeed.cpu_ticks()
        cpu_before = self._service_cpu_s()
        lock = threading.Lock()
        outstanding: dict[str, tuple] = {}
        finished: list[dict[str, Any]] = []
        lateness: list[float] = []
        refused: list[int] = []
        submitted = threading.Event()
        errors: list[BaseException] = []
        start = time.perf_counter() + 0.05
        window_start = time.monotonic() + 0.05

        def submitter() -> None:
            for job in self.schedule:
                due = start + job.due_s
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                lateness.append((sent - due) * 1000)
                tenant_client = self.clients[job.tenant]
                try:
                    queued = self._submit(
                        tenant_client, job.name, job.source, job.objective
                    )
                except (OSError, self._service_error):
                    refused.append(job.index)
                    continue
                with lock:
                    outstanding[queued["id"]] = (job, due, sent)

        def poller() -> None:
            while not errors:
                with lock:
                    pending = list(outstanding.items())
                if not pending:
                    if submitted.is_set():
                        with lock:
                            if not outstanding:
                                return
                    time.sleep(POLL_S)
                    continue
                for job_id, (job, due, sent) in pending:
                    status = self.clients[job.tenant].status(job_id)
                    if status["state"] not in TERMINAL:
                        continue
                    seen = time.perf_counter()
                    with lock:
                        del outstanding[job_id]
                    finished.append(
                        {
                            "job": job,
                            "id": job_id,
                            "status": status,
                            "latency_ms": (seen - due) * 1000,
                            "client_ms": (seen - sent) * 1000,
                        }
                    )
                time.sleep(POLL_S)

        def guarded(body) -> None:
            try:
                body()
            except BaseException as error:  # re-raised on the main thread
                errors.append(error)
            finally:
                if body is submitter:
                    submitted.set()

        threads = [
            threading.Thread(target=guarded, args=(body,))
            for body in (submitter, poller)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 120)
            if thread.is_alive():
                raise RuntimeError("load generator did not finish")
        if errors:
            raise errors[0]
        after = client.metrics()
        window_end = time.monotonic()
        self._steal = hostspeed.steal_share(ticks, hostspeed.cpu_ticks())
        self._cpu = [b - a for a, b in zip(cpu_before, self._service_cpu_s())]
        identical, waste, instructions, rows = self._verify(finished)
        self._peak_rss_mb = self.daemon.peak_rss_mb()
        self.daemon.stop()
        probes = [
            probe_s for at, probe_s in self.daemon.output["probes"]
            if window_start <= at <= window_end
        ]
        phase = self._phase(before, after, finished, lateness, refused, probes)
        phase.correct = phase.correct and identical
        phase.end_to_end["fluid_waste_nl"] = float(waste)
        phase.end_to_end["program_instructions"] = instructions
        phase.detail["byte_identity"] = rows
        if self.daemon.trace:
            phase.layers = self._layers(
                before, after, finished, window_start, window_end
            )
        return phase

    def _verify(self, finished) -> tuple[bool, Fraction, int, list]:
        """Served artifacts must equal an in-process compile's listing."""
        from repro.compiler.passes import run_compile
        from repro.core.hierarchy import VolumeManager
        from repro.core.report import plan_waste_breakdown
        from repro.machine.spec import AQUACORE_SPEC

        served = {}
        for item in finished:
            job = item["job"]
            if item["status"]["state"] == "done":
                served.setdefault((job.name, job.objective), item)
        sample = []
        for key, (tenant, job_id) in sorted(self.warm_jobs.items()):
            item = served.get(key)
            if item is not None:
                tenant, job_id = item["job"].tenant, item["id"]
            source = next(s for n, s, o in inputs.hot_set() if (n, o) == key)
            sample.append((key, tenant, job_id, source, True))
        variants = sorted(
            (key, item) for key, item in served.items() if not item["job"].hot
        )
        rng = random.Random(f"serve-sample|{self.seed}")
        for key, item in rng.sample(variants, min(SAMPLED_VARIANTS, len(variants))):
            job = item["job"]
            sample.append((key, job.tenant, item["id"], job.source, False))
        ok = True
        waste = Fraction(0)
        instructions = 0
        rows = []
        for (name, objective), tenant, job_id, source, hot in sample:
            artifact = self.clients[tenant].artifact(job_id)
            compiled = run_compile(
                source=source,
                manager=VolumeManager(AQUACORE_SPEC.limits, objective=objective),
            ).compiled
            same = artifact == (compiled.listing() + "\n").encode("utf-8")
            ok = ok and same
            rows.append({"job": name, "objective": objective, "identical": same})
            if hot:
                instructions += len(compiled.program.instructions)
                if compiled.is_static:
                    waste += plan_waste_breakdown(
                        compiled.plan, compiled.assignment
                    ).excess
        return ok, waste, instructions, rows

    def _service_cpu_s(self) -> tuple[float, float, float]:
        """CPU seconds so far of the daemon's job threads, of its pool
        workers, and of its event loop (HTTP, polls, bookkeeping)."""
        pid = self.daemon.proc.pid
        workers = sum(
            hostspeed.process_cpu_s(child) for child in hostspeed.child_pids(pid)
        )
        threads = hostspeed.process_cpu_s(pid, main_thread=False)
        return threads, workers, hostspeed.process_cpu_s(pid) - threads

    def _phase(self, before, after, finished, lateness, refused,
               probes) -> Phase:
        latencies = [item["latency_ms"] for item in finished]
        done = [i for i in finished if i["status"]["state"] == "done"]
        good = [i for i in done if i["latency_ms"] <= LIMIT_MS]
        attempted = len(self.schedule)
        # refused and failed jobs miss the limit and count as failed
        failed = attempted - len(done)
        # goodput over the wall time from the first due time to the last
        # completion: a backlog that grows stretches it
        duration_s = max(
            i["job"].due_s + i["latency_ms"] / 1000 for i in finished
        )
        ok_share = len(good) / attempted
        p50, p90, p99 = (percentile(latencies, q) for q in (50, 90, 99))
        # CPU cost per job, which the hypervisor's steal does not inflate,
        # at the reference host speed.  The event loop's share is left
        # out: it grows with the number of status polls, which grows with
        # latency, which steal drives.
        factor = hostspeed.REFERENCE_PROBE_S / statistics.mean(probes)
        daemon_ms = self._cpu[0] * 1000 / max(len(done), 1)
        loop_ms = self._cpu[2] * 1000 / max(len(done), 1)
        pool_tasks = after["pool"]["submitted"] - before["pool"]["submitted"]
        pool_ms = self._cpu[1] * 1000 / max(pool_tasks, 1)
        return Phase(
            end_to_end={
                "op_ms": daemon_ms * factor,
                "op_tail_ms": pool_ms * factor,
                "throughput_per_s": len(good) / duration_s,
                "ok_share": ok_share,
            },
            detail={
                "served_ms_p50": p50,
                "served_ms_p90": p90,
                "served_ms_p99": p99,
                "latency_samples": len(latencies),
                "daemon_job_threads_cpu_ms_per_job": daemon_ms,
                "daemon_loop_cpu_ms_per_job": loop_ms,
                "pool_cpu_ms_per_task": pool_ms,
                "pool_tasks": pool_tasks,
                "host_probe_ms": statistics.mean(probes) * 1000,
                "host_steal_share": self._steal,
                "served_ok_share": ok_share,
                "offered_per_s": RATE,
                "limit_ms": LIMIT_MS,
                "jobs": attempted,
                "done": len(done),
                "refused": len(refused),
                "generator_late_ms_p50": percentile(lateness, 50),
                "generator_late_ms_max": max(lateness),
                "hits": sum(1 for i in done if i["status"]["cache"] == "hit"),
                "misses": sum(1 for i in done if i["status"]["cache"] == "miss"),
                "why": {
                    "hot": "repeated paper-assay jobs: warm hits (parse, "
                    "fingerprint, serde restore, codegen)",
                    "variants": {
                        name: why
                        for name, (__, why, ___) in inputs.VARIANT_TEMPLATES.items()
                    },
                },
            },
            attempted=attempted,
            failed=failed,
            correct=failed == 0,
        )

    def _layers(self, before, after, finished, window_start, window_end):
        """Per-job layer numbers: ``/v1/metrics`` deltas, job timestamps,
        and the spans the traced daemon wrote when it stopped."""
        done = [i for i in finished if i["status"]["state"] == "done"]
        jobs = max(len(done), 1)

        def delta(*path: str) -> float:
            a: Any = after
            b: Any = before
            for key in path:
                a = a.get(key, {}) if isinstance(a, dict) else 0
                b = b.get(key, {}) if isinstance(b, dict) else 0
            return (a or 0) - (b or 0)

        queue = [
            (i["status"]["started_s"] - i["status"]["created_s"]) * 1000
            for i in done
        ]
        run = [
            (i["status"]["finished_s"] - i["status"]["started_s"]) * 1000
            for i in done
        ]
        overhead = [i["client_ms"] - i["status"]["elapsed_ms"] for i in done]
        hits, misses = delta("cache", "hits"), delta("cache", "misses")
        layers = {
            "service.queue_wait_ms": statistics.mean(queue),
            "service.run_ms": statistics.mean(run),
            "service.client_overhead_ms": statistics.mean(overhead),
            "service.coalesced": delta("coalesced") / jobs,
            "compiler.cache.hit_ratio": hits / max(hits + misses, 1),
            "compiler.pool.tasks": delta("pool", "submitted") / jobs,
        }
        for name in SERVICE_PASSES:
            layers[f"service.pass.{name}.ms"] = (
                delta("passes", name, "sum_ms") / jobs
            )
        spans = [
            row for row in self.daemon.output["spans"] if row[4] <= window_end
        ]
        totals = tracing.layer_totals(spans, since=window_start)
        layers.update(
            _ops_layers(
                totals, jobs,
                COMPILE_LAYERS + [
                    "core.fingerprint", "core.serde", "compiler.cache.get",
                    "compiler.cache.put",
                ],
            )
        )
        layers["trace.spans_per_op"] = sum(
            entry["calls"] for entry in totals.values()
        ) / jobs
        pool = totals.get("compiler.pool", {})
        layers["compiler.pool.wait_ms"] = (
            (pool.get("total_ms", 0.0) - pool.get("worker_ms", 0.0))
            / max(pool.get("calls", 0), 1)
        )
        return layers

    def peak_rss_mb(self) -> float:
        return self._peak_rss_mb

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()


#: daemon passes whose per-job time ``/v1/metrics`` reports.
SERVICE_PASSES = (
    "build-dag", "hierarchy", "dagsolve", "lp", "cascade", "replicate",
    "round", "codegen", "assemble",
)
