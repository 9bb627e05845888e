#!/usr/bin/env python
"""One corpus harness: compile every assay once, run every checker on it.

Each entry of :func:`corpus_entries` is compiled exactly once through
:func:`repro.compiler.passes.run_compile` with a
:class:`~repro.compiler.passes.PassEventBus`.  The checkers all read
that shared result:

* ``lint`` — every program lints with zero error-severity findings;
* ``certify`` — every plan and schedule certifies clean (zero errors,
  zero warnings); the paper benchmarks (Figures 12-14) also pass a
  metrics smoke check;
* ``sourceflow`` — every entry that exists as rolled source verifies
  clean for all loop bounds, and its fixpoint converges;
* ``races`` — every serial program is free of ``RACE-*`` errors and
  warnings; merged pairs are flagged unfenced and pass fenced; every
  dynamic ``SCHED-*`` error of a replayed interleaving has a static
  ``RACE-*`` counterpart (zero escapes);
* ``stress`` — every program runs under seeded fault injection with no
  exception escaping, and two runs give byte-identical reports;
* ``waste`` — an explicit ``objective="default"`` compile gives the
  shared listing; a ``waste`` compile certifies with zero errors; static
  plans get disjoint fingerprints per objective (corpus plus
  :func:`repro.assays.gradients.gradient_corpus`);
* ``batch`` — a cold certified :func:`~repro.compiler.batch.compile_many`
  on 2 workers compiles and certifies every entry; a warm rerun hits the
  cache for every static plan; a compile served from that cache gives
  the shared listing;
* ``serve`` — an in-process ``repro serve`` daemon compiles the source
  entries for two concurrent tenants with the shared listing's bytes; a
  warm resubmit hits for every static plan; a waste-objective job
  misses; ``/v1/metrics`` reconciles with the jobs run;
* ``timings`` — per-pass wall/CPU times, read from the shared buses.

The harness digests every shared compile (listing, plan summary,
diagnostics) before the checkers run and fails a checker that changed
one.

Usage: python tools/corpus.py [--check NAME[,NAME]] [--out PATH] [-v]

``--out`` writes one JSON report (per-check failure counts, the pass
timings, the serve metrics); without it nothing is written.  Exits 0
when every selected check passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import pathlib
import sys
import threading
from typing import NamedTuple

REPO = pathlib.Path(__file__).resolve().parents[1]
if str(REPO / "src") not in sys.path:
    sys.path.insert(0, str(REPO / "src"))

from repro.analysis import lint_program, verify_source  # noqa: E402
from repro.analysis.certify import certify, certify_schedule  # noqa: E402
from repro.analysis.races import analyze_races  # noqa: E402
from repro.assays import (  # noqa: E402
    enzyme,
    extra,
    generators,
    glucose,
    glycomics,
    paper_example,
)
from repro.assays.gradients import gradient_corpus  # noqa: E402
from repro.compiler.batch import BatchJob, compile_many  # noqa: E402
from repro.compiler.cache import PlanCache  # noqa: E402
from repro.compiler.passes import (  # noqa: E402
    PASS_EVENT_SCHEMA_VERSION,
    CompileContext,
    PassEventBus,
    render_timing_table,
    run_compile,
)
from repro.core.hierarchy import VolumeManager  # noqa: E402
from repro.ir.program import AISProgram  # noqa: E402
from repro.machine.spec import AQUACORE_SPEC  # noqa: E402
from repro.runtime.stress import stress_compiled  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402
from repro.service.server import ServiceConfig, start_in_thread  # noqa: E402

#: Figure 12-14 benchmarks that get the certify metrics smoke check.
PAPER_BENCHMARKS = ("glucose", "glycomics", "enzyme")
STRESS_SEEDS = 12
STRESS_FAULT_RATE = 0.08
BATCH_WORKERS = 2
SERVE_TENANTS = ("ci-alpha", "ci-beta")
#: the static-plan source the serve check resubmits under ``waste``.
SERVE_WASTE_ENTRY = "glucose"

#: corpus pairs merged by the races check (all share mixer/sensor units).
MERGE_PAIRS = (
    ("glucose", "enzyme"),
    ("glucose", "glycomics"),
    ("figure2", "glucose"),
    ("elisa", "bradford"),
)
#: deterministic interleavings: at step k, take from program
#: ``pattern[k % len(pattern)]`` (falling back when one side runs dry).
PATTERNS = (
    (0, 1),          # strict alternation
    (0, 0, 1),       # 2:1 bias
    (1, 1, 0),       # reversed bias
)


def custom_assay_source() -> str:
    """The example walkthrough's assay source (not an importable module)."""
    path = REPO / "examples" / "custom_assay.py"
    spec = importlib.util.spec_from_file_location("custom_assay", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SOURCE


def corpus_entries() -> list[tuple[str, dict]]:
    """The corpus: ``(name, run_compile kwargs)`` pairs.

    The kwargs hold either ``{"source": text}`` or a freshly built
    ``{"dag": ...}``; every call rebuilds the generator DAGs.
    """
    return [
        ("figure2", {"source": paper_example.SOURCE}),
        ("glucose", {"source": glucose.SOURCE}),
        ("glycomics", {"source": glycomics.SOURCE}),
        ("enzyme", {"source": enzyme.SOURCE}),
        ("elisa", {"source": extra.ELISA_SOURCE}),
        ("bradford", {"source": extra.BRADFORD_SOURCE}),
        ("pcr-prep", {"source": extra.PCR_PREP_SOURCE}),
        ("custom-example", {"source": custom_assay_source()}),
        ("gen-enzyme-4", {"dag": generators.enzyme_n(4)}),
        ("gen-dilution-6", {"dag": generators.serial_dilution(6)}),
        ("gen-mixtree-3", {"dag": generators.binary_mix_tree(3)}),
        ("gen-fanout-4x3", {"dag": generators.fanout_chain(4, 3)}),
    ]


def output_digest(compiled) -> str:
    """sha256 over the listing, the plan summary and the diagnostics."""
    digest = hashlib.sha256()
    digest.update(compiled.listing().encode())
    digest.update(b"\0")
    if compiled.plan is not None:
        digest.update(compiled.plan.summary().encode())
    digest.update(b"\0")
    for diagnostic in compiled.diagnostics:
        digest.update(str(diagnostic).encode() + b"\n")
    return digest.hexdigest()


class Entry(NamedTuple):
    """One corpus entry and its shared compile."""

    name: str
    inputs: dict
    ctx: CompileContext
    bus: PassEventBus
    digest: str

    @property
    def compiled(self):
        return self.ctx.compiled

    @property
    def source(self) -> str | None:
        return self.inputs.get("source")


def compile_corpus() -> list[Entry]:
    entries = []
    for name, inputs in corpus_entries():
        bus = PassEventBus(fingerprints=True)
        ctx = run_compile(bus=bus, **inputs)
        entries.append(
            Entry(name, inputs, ctx, bus, output_digest(ctx.compiled))
        )
    return entries


# ---------------------------------------------------------------- checks


def check_lint(entries, report, verbose) -> int:
    failures = 0
    for entry in entries:
        compiled = entry.compiled
        lint = lint_program(compiled.program, compiled.spec)
        counts = lint.counts
        status = "clean" if lint.is_clean else (
            f"{counts['error']} error(s), {counts['warning']} warning(s)"
        )
        print(f"{entry.name:16s} {status}")
        if verbose or counts["error"]:
            for finding in lint.findings:
                print(f"  {finding}")
        failures += bool(counts["error"])
    return failures


def certify_smoke(certificate) -> str | None:
    """Metrics consistency for the paper benchmarks; None when fine."""
    summary = certificate.to_dict()["summary"]
    if not summary["schedule_checked"]:
        return "schedule half was not certified"
    if summary["plan_checked"]:
        metrics = summary["metrics"]
        if metrics.get("delivered_nl", 0) <= 0:
            return "certified plan delivers nothing"
        if metrics["delivered_nl"] > metrics["loaded_nl"] + 1e-9:
            return "delivered more than was loaded"
        if not 0 <= metrics["utilisation"] <= 1:
            return f"utilisation {metrics['utilisation']} out of range"
    elif "PLAN-DEFERRED" not in certificate.codes():
        return "plan half skipped without a PLAN-DEFERRED note"
    return None


def check_certify(entries, report, verbose) -> int:
    failures = 0
    for entry in entries:
        certificate = certify(entry.compiled)
        status = "certified" if certificate.is_clean else (
            f"{certificate.counts['error']} error(s), "
            f"{certificate.counts['warning']} warning(s)"
        )
        print(f"{entry.name:16s} {status}")
        if verbose or not certificate.is_clean:
            for finding in certificate.findings:
                print(f"  {finding}")
        if not certificate.is_clean:
            failures += 1
        elif entry.name in PAPER_BENCHMARKS:
            problem = certify_smoke(certificate)
            if problem:
                print(f"  metrics smoke check failed: {problem}")
                failures += 1
    return failures


def check_sourceflow(entries, report, verbose) -> int:
    failures = 0
    for entry in entries:
        if entry.source is None:
            continue
        verdict = verify_source(entry.source, name=entry.name)
        stats = verdict.extras["fixpoint"]
        if not stats["converged"]:
            print(f"{entry.name:16s} FIXPOINT DID NOT CONVERGE")
            failures += 1
            continue
        counts = verdict.counts
        status = (
            f"verified for all loop bounds ({stats['sweeps']} sweeps, "
            f"{stats['loops']} loops)"
            if verdict.is_clean
            else f"{counts['error']} error(s), {counts['warning']} warning(s)"
        )
        print(f"{entry.name:16s} {status}")
        if verbose or not verdict.is_clean:
            for finding in verdict.findings:
                print(f"  {finding}")
        failures += not verdict.is_clean
    return failures


def interleave(a: AISProgram, b: AISProgram, pattern) -> AISProgram:
    """Merge two serial programs in a deterministic interleaving."""
    merged = AISProgram(name=f"{a.name}|{b.name}", machine=a.machine)
    streams = [list(a.instructions), list(b.instructions)]
    cursor = [0, 0]
    step = 0
    while cursor[0] < len(streams[0]) or cursor[1] < len(streams[1]):
        choice = pattern[step % len(pattern)]
        if cursor[choice] >= len(streams[choice]):
            choice = 1 - choice
        merged.append(streams[choice][cursor[choice]])
        cursor[choice] += 1
        step += 1
    return merged


def error_bases(diagnostics) -> set:
    return {
        (d.code, (d.operand or "").split(".")[0])
        for d in diagnostics
        if d.severity.value == "error"
    }


def check_races(entries, report, verbose) -> int:
    programs = {entry.name: entry.compiled.program for entry in entries}
    spec = entries[0].compiled.spec
    failures = 0

    print("-- intra-program sweep (serial schedules must be race-free) --")
    for name, program in programs.items():
        races = analyze_races(program, spec)
        counts = races.counts
        status = (
            "race-free" if not races.findings
            else f"{counts['error']} error(s), {counts['note']} note(s)"
        )
        print(
            f"{name:16s} {status:24s} "
            f"[{races.extras['mhp']['mhp_pairs']} schedule-sensitive pair(s)]"
        )
        bad = bool(counts["error"] or counts["warning"])
        if verbose or bad:
            for finding in races.findings:
                print(f"  {finding}")
        failures += bad

    print("\n-- merged-schedule oracle (flag unfenced, pass fenced) --")
    for left, right in MERGE_PAIRS:
        a, b = programs[left], programs[right]
        unfenced = analyze_races([a, b], spec)
        fenced = analyze_races(
            [a, b], spec, barriers=[(len(a.instructions), 0)]
        )
        ok = unfenced.counts["error"] > 0 and fenced.counts["error"] == 0
        print(
            f"{left}+{right}: unfenced {unfenced.counts['error']} "
            f"error(s) over {unfenced.extras['mhp']['mhp_pairs']} MHP pair(s); "
            f"fenced {fenced.counts['error']} error(s)"
            + ("" if ok else "  <-- FAIL")
        )
        if unfenced.counts["error"] == 0:
            print("  expected interference in the unfenced merge")
            failures += 1
        if fenced.counts["error"] != 0:
            for finding in fenced.findings:
                print(f"  {finding}")
            failures += 1

    print("\n-- differential gate (static subsumes dynamic replay) --")
    for left, right in MERGE_PAIRS:
        a, b = programs[left], programs[right]
        solo = error_bases(certify_schedule(a, spec))
        solo |= error_bases(certify_schedule(b, spec))
        static = analyze_races([a, b], spec, share_storage=True)
        static_bases = {
            (f.operand or "").split(".")[0] for f in static.findings
        }
        escapes = []
        for pattern in PATTERNS:
            merged = interleave(a, b, pattern)
            dynamic = error_bases(certify_schedule(merged, spec))
            for code, base in sorted(dynamic - solo):
                if base not in static_bases:
                    escapes.append((pattern, code, base))
        print(
            f"{left}+{right}: {len(PATTERNS)} interleaving(s), "
            f"{len(escapes)} escape(s)"
        )
        for pattern, code, base in escapes:
            print(f"  pattern {pattern}: dynamic {code} on {base!r} "
                  "has no static RACE-* counterpart")
        failures += bool(escapes)
    return failures


def check_stress(entries, report, verbose) -> int:
    failures = 0
    for entry in entries:
        try:
            runs = [
                stress_compiled(
                    entry.compiled,
                    seeds=STRESS_SEEDS,
                    fault_rate=STRESS_FAULT_RATE,
                )
                for __ in range(2)
            ]
        except Exception as error:  # noqa: BLE001 — the property under test
            print(f"{entry.name:16s} UNHANDLED {type(error).__name__}: {error}")
            failures += 1
            continue
        stress = runs[0]
        if stress.render_json() != runs[1].render_json():
            print(f"{entry.name:16s} NONDETERMINISTIC report")
            failures += 1
            continue
        print(
            f"{entry.name:16s} {stress.survived}/{len(stress.scenarios)} "
            f"survived, {sum(stress.faults_by_kind().values())} faults "
            f"injected, {sum(stress.recoveries_by_action().values())} "
            "recoveries"
        )
        if verbose:
            for line in stress.render_text().splitlines()[1:]:
                print("  " + line)
    return failures


def objective_compile(inputs: dict, objective: str) -> CompileContext:
    manager = VolumeManager(AQUACORE_SPEC.limits, objective=objective)
    return run_compile(spec=AQUACORE_SPEC, manager=manager, **inputs)


def check_waste(entries, report, verbose) -> int:
    workloads = [
        (entry.name, entry.inputs, entry.compiled.listing())
        for entry in entries
    ]
    for dag in gradient_corpus():
        listing = run_compile(dag=dag).compiled.listing()
        workloads.append((dag.name, {"dag": dag}, listing))

    failures = 0
    for name, inputs, listing in workloads:
        problems = []
        default = objective_compile(inputs, "default")
        if default.compiled.listing() != listing:
            problems.append("default listing differs from the shared compile")
        waste = objective_compile(inputs, "waste")
        certificate = certify(waste.compiled)
        if certificate.counts["error"]:
            problems.append(
                f"waste plan certification: "
                f"{certificate.counts['error']} error(s)"
            )
        if (
            default.is_static
            and waste.is_static
            and default.compile_fingerprint() == waste.compile_fingerprint()
        ):
            problems.append("objectives share a compile fingerprint")
        print(f"{name:28s} {'; '.join(problems) or 'ok'}")
        if verbose and certificate.counts["error"]:
            for finding in certificate.findings:
                print(f"  {finding}")
        if verbose and waste.plan is not None:
            print(f"  [info] waste status: {waste.plan.status}")
        failures += bool(problems)
    return failures


def batch_failures(label: str, batch, *, expect_hits: bool) -> int:
    failures = 0
    for result in batch.results:
        if result.status == "failed":
            print(f"  {label}: {result.name} failed: {result.detail}")
            failures += 1
        elif result.errors:
            print(f"  {label}: {result.name} has {result.errors} error(s)")
            failures += 1
        elif result.certified_clean is False:
            print(f"  {label}: {result.name} failed plan certification")
            failures += 1
        elif (
            expect_hits
            and result.cacheable
            and result.status not in ("hit", "deduped")
        ):
            # runtime-deferred plans are not cacheable and recompile warm
            print(
                f"  {label}: {result.name} missed the warm cache "
                f"(status {result.status})"
            )
            failures += 1
    return failures


def check_batch(entries, report, verbose) -> int:
    cache = PlanCache()
    jobs = [BatchJob(entry.name, **entry.inputs) for entry in entries]

    cold = compile_many(
        jobs, cache=cache, max_workers=BATCH_WORKERS, certify=True
    )
    print(f"cold (jobs={BATCH_WORKERS}):")
    print(cold.render())
    failures = batch_failures("cold", cold, expect_hits=False)

    warm = compile_many(jobs, cache=cache, certify=True)
    print("\nwarm (certified):")
    print(warm.render())
    failures += batch_failures("warm", warm, expect_hits=True)

    for entry in entries:
        served = run_compile(cache=cache, **entry.inputs).compiled
        if served.listing() != entry.compiled.listing():
            print(f"  {entry.name}: listing from the batch cache differs "
                  "from the shared compile")
            failures += 1

    stats = cache.stats.to_dict()
    print(
        f"\ncache: {stats['hits']} hit / {stats['misses']} miss "
        f"(rate {stats['hit_rate']:.0%}), "
        f"{stats['uncacheable']} uncacheable"
    )
    if verbose:
        print(json.dumps(stats, indent=2))
    return failures


def check_serve(entries, report, verbose) -> int:
    sources = [entry for entry in entries if entry.source is not None]
    expected = {
        entry.name: (entry.compiled.listing() + "\n").encode("utf-8")
        for entry in sources
    }
    failures = 0
    handle = start_in_thread(ServiceConfig(workers=2))
    try:
        sweeps: dict[str, list] = {tenant: [] for tenant in SERVE_TENANTS}
        errors: list[BaseException] = []

        def sweep(tenant: str) -> None:
            try:
                client = ServiceClient(handle.url, tenant=tenant)
                for entry in sources:
                    body = client.run(
                        "compile", entry.source, name=entry.name, timeout=600
                    )
                    artifact = client.artifact(body["job"]["id"])
                    sweeps[tenant].append(
                        (entry.name, body["result"], artifact)
                    )
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        threads = [
            threading.Thread(target=sweep, args=(tenant,))
            for tenant in SERVE_TENANTS
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]

        # concurrent sweep: completeness + byte identity
        for tenant in SERVE_TENANTS:
            if len(sweeps[tenant]) != len(sources):
                print(f"{tenant}: {len(sweeps[tenant])}/{len(sources)} "
                      "jobs done")
                failures += 1
            for name, result, artifact in sweeps[tenant]:
                if verbose:
                    print(
                        f"{name:16s} [{tenant}] cache={result['cache']:9s} "
                        f"plan={result['plan_status']}"
                    )
                if artifact != expected[name]:
                    print(f"{name}: served listing differs from the "
                          "shared compile")
                    failures += 1
                if result["exit_code"] != 0:
                    print(f"{name}: exit {result['exit_code']}")
                    failures += 1

        # warm sweep: one tenant resubmits everything
        warm_client = ServiceClient(handle.url, tenant=SERVE_TENANTS[0])
        warm_hits = static = 0
        for entry in sources:
            result = warm_client.run(
                "compile", entry.source, name=entry.name, timeout=600
            )["result"]
            if result["plan_status"] != "runtime":
                static += 1
                if result["cache"] == "hit":
                    warm_hits += 1
                elif verbose:
                    print(f"{entry.name}: warm resubmit was {result['cache']}")
        print(
            f"warm sweep: {warm_hits}/{static} static assays served "
            "from the tenant cache"
        )
        if warm_hits != static:
            print("warm hit-rate below 100% for static plans")
            failures += 1

        # the cache is warm with default-objective plans; a waste compile
        # of the same source must miss (disjoint fingerprints) and succeed
        waste_source = next(
            entry.source for entry in sources
            if entry.name == SERVE_WASTE_ENTRY
        )
        for tenant in SERVE_TENANTS:
            result = ServiceClient(handle.url, tenant=tenant).run(
                "compile",
                waste_source,
                name=f"{SERVE_WASTE_ENTRY}-waste",
                options={"objective": "waste"},
                timeout=600,
            )["result"]
            if result["exit_code"] != 0:
                print(f"{tenant}: waste-objective compile failed")
                failures += 1
            if result["cache"] == "hit":
                print(
                    f"{tenant}: waste compile hit the default-objective "
                    "cache entry (fingerprints not disjoint)"
                )
                failures += 1
            if verbose:
                print(
                    f"{SERVE_WASTE_ENTRY:16s} [{tenant}] objective=waste "
                    f"cache={result['cache']:9s} "
                    f"plan={result['plan_status']}"
                )

        metrics = warm_client.metrics()
        total_jobs = (len(SERVE_TENANTS) + 1) * len(sources) + len(
            SERVE_TENANTS
        )
        jobs = metrics["jobs_total"]
        if jobs["submitted"] != total_jobs:
            print(f"metrics submitted={jobs['submitted']} != {total_jobs}")
            failures += 1
        if jobs["done"] != total_jobs:
            print(f"metrics done={jobs['done']} != {total_jobs}")
            failures += 1
        report["serve_metrics"] = metrics
    finally:
        handle.stop()
    if not failures:
        print(f"{len(sources)} corpus assays served clean by the daemon")
    return failures


def check_timings(entries, report, verbose) -> int:
    totals: dict[str, dict] = {}
    programs = []
    for entry in entries:
        per_pass = {}
        for event in entry.bus.ran():
            record = totals.setdefault(
                event.name, {"runs": 0, "wall_ms": 0.0, "cpu_ms": 0.0}
            )
            record["runs"] += 1
            record["wall_ms"] += event.wall_s * 1000
            record["cpu_ms"] += event.cpu_s * 1000
            per_pass[event.name] = round(event.wall_s * 1000, 4)
        wall_ms = entry.bus.total_wall_s() * 1000
        programs.append({
            "name": entry.name,
            "static": entry.compiled.is_static,
            "wall_ms": round(wall_ms, 4),
            "passes": per_pass,
        })
        print(f"{entry.name:16s} {len(entry.bus.ran())} passes, "
              f"{wall_ms:.1f} ms")
        if verbose:
            print(render_timing_table(entry.bus))
    for record in totals.values():
        record["wall_ms"] = round(record["wall_ms"], 4)
        record["cpu_ms"] = round(record["cpu_ms"], 4)
    report["pass_timings"] = {
        "version": PASS_EVENT_SCHEMA_VERSION,
        "programs": programs,
        "per_pass_totals": dict(sorted(totals.items())),
    }
    return 0


CHECKS = {
    "lint": check_lint,
    "certify": check_certify,
    "sourceflow": check_sourceflow,
    "races": check_races,
    "stress": check_stress,
    "waste": check_waste,
    "batch": check_batch,
    "serve": check_serve,
    "timings": check_timings,
}


def parse_checks(value: str) -> list[str]:
    names = [name.strip() for name in value.split(",") if name.strip()]
    unknown = [name for name in names if name not in CHECKS]
    if unknown or not names:
        raise argparse.ArgumentTypeError(
            f"unknown check(s) {', '.join(unknown) or value!r} "
            f"(known: {', '.join(CHECKS)})"
        )
    return names


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        type=parse_checks,
        default=list(CHECKS),
        metavar="NAME[,NAME]",
        help=f"checks to run (default: all of {', '.join(CHECKS)})",
    )
    parser.add_argument(
        "--out", metavar="PATH", help="write the JSON report to PATH"
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)

    entries = compile_corpus()
    report: dict = {"checks": {}}
    for name in args.check:
        print(f"== {name} ==")
        failures = CHECKS[name](entries, report, args.verbose)
        for index, entry in enumerate(entries):
            digest = output_digest(entry.compiled)
            if digest != entry.digest:
                print(f"  {entry.name}: the {name} check changed the "
                      "shared compile")
                failures += 1
                # blame only this check, not the ones that run after it
                entries[index] = entry._replace(digest=digest)
        report["checks"][name] = failures
        print()

    if args.out:
        out = pathlib.Path(args.out)
        out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"report written to {out}")
    failed = [name for name, count in report["checks"].items() if count]
    if failed:
        print(f"FAILED: {', '.join(failed)}")
        return 1
    print(f"all {len(args.check)} check(s) passed over "
          f"{len(entries)} corpus entries")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
