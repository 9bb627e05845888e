"""Command-line interface: compile, plan, run, and inspect assays.

Usage (also via ``python -m repro``)::

    python -m repro check    assay.fluid            # parse + semantic lint
    python -m repro dag      assay.fluid [--dot]    # the volume DAG
    python -m repro plan     assay.fluid            # volume assignment
    python -m repro compile  assay.fluid            # AIS listing
        [--lint] [--certify] [--race-check]         # run the analyzers on
                                                    # the one compile
        [--time-passes] [--explain] [--profile]     # per-pass timing table /
        [--stats-json PATH]                         # cProfile hotspots /
                                                    # pass plan + events JSON
    python -m repro compile  a.fluid b.fluid --batch --jobs 4 \
        [--cache-dir DIR] [--stats-json PATH]       # batch pipeline with
                                                    # content-addressed cache
    python -m repro lint     program.ais            # fluid-safety analysis
        [--json] [--assay] [--source]               # JSON report; lint an
                                                    # assay source / verify
                                                    # the rolled program
        [--races [--topology {bus,ring}]]           # static race detector
                                                    # (HB + lockset, RACE-*)
    python -m repro certify  program.ais            # plan-certificate verifier
        [--json] [--assay] [--topology {bus,ring}]  # translation validation +
                                                    # schedule interference
    python -m repro run      assay.fluid            # execute on the model
        [--coeff SPECIES=VALUE ...]                 # optical coefficients
        [--sep-yield UNIT=FRACTION ...]             # separator models
    python -m repro bench-regen assay.fluid         # naive regeneration count
    python -m repro stress   assay.fluid            # seeded fault injection
        [--seeds N] [--fault-rate R] [--json]       # survival matrix over N
        [--kinds CSV] [--budget NL]                 # deterministic scenarios
    python -m repro serve    [--port P] [--jobs N]  # resident compile service
        [--cache-dir DIR] [--ttl S] [--token T=TEN] # (HTTP/JSON wire schema
                                                    # v1, docs/SERVICE.md)
    python -m repro client   compile assay.fluid    # submit one job to a
        [--url URL] [--tenant NAME]                 # running daemon; prints
                                                    # the CLI-identical output

Common options: ``--machine {aquacore,aquacore-xl}``, ``--no-lp``,
``--no-cascade``, ``--no-replicate``.  Pass ``-`` to read from stdin.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from fractions import Fraction
from collections.abc import Sequence

from .compiler.passes import (
    CompileContext,
    PassEventBus,
    events_payload,
    front_end,
    render_timing_table,
    run_compile,
)
from .core.errors import VolumeError
from .core.hierarchy import VolumeManager
from .core.limits import as_fraction
from .lang.errors import FrontendError
from .machine.interpreter import Machine
from .machine.separation import FractionalYield
from .machine.spec import AQUACORE_SPEC, AQUACORE_XL_SPEC, MachineSpec
from .runtime.executor import AssayExecutor
from .runtime.regeneration import naive_regeneration_count

__all__ = ["main", "build_parser"]

MACHINES = {"aquacore": AQUACORE_SPEC, "aquacore-xl": AQUACORE_XL_SPEC}


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _spec(args) -> MachineSpec:
    spec = MACHINES[getattr(args, "machine", "aquacore")]
    if getattr(args, "coeff", None):
        coefficients = {}
        for item in args.coeff:
            species, __, value = item.partition("=")
            if not value:
                raise SystemExit(f"--coeff expects SPECIES=VALUE, got {item!r}")
            coefficients[species] = as_fraction(value)
        spec = dataclasses.replace(
            spec, extinction_coefficients=coefficients
        )
    return spec


def _cli_options(args) -> dict:
    return {
        "use_lp": not getattr(args, "no_lp", False),
        "allow_cascading": not getattr(args, "no_cascade", False),
        "allow_replication": not getattr(args, "no_replicate", False),
        "objective": getattr(args, "objective", "default"),
    }


@dataclasses.dataclass
class Invocation:
    """One CLI request, resolved exactly once.

    Every source-taking subcommand shares this preamble: read the file
    (or stdin), resolve the machine spec and volume-manager knobs, and
    compute the default program name.  The compile itself always goes
    through the one pass manager (:func:`repro.compiler.passes.run_compile`).
    """

    path: str
    source: str
    spec: MachineSpec
    options: dict

    @property
    def default_name(self) -> str:
        if self.path == "-":
            return "stdin"
        return os.path.splitext(os.path.basename(self.path))[0]

    def manager(self) -> VolumeManager:
        return VolumeManager(self.spec.limits, **self.options)

    def front_end(self) -> CompileContext:
        """Frontend passes only: parse, unroll, build + validate the DAG."""
        return front_end(source=self.source, spec=self.spec)

    def compile(
        self,
        *,
        lint: bool = False,
        certify: bool = False,
        source_lint: bool = False,
        race_check: bool = False,
        profile: bool = False,
        cache=None,
        bus: PassEventBus | None = None,
    ) -> CompileContext:
        """Full compile through the pass manager; returns the context."""
        return run_compile(
            source=self.source,
            spec=self.spec,
            manager=self.manager(),
            lint=lint,
            certify=certify,
            source_lint=source_lint,
            race_check=race_check,
            profile=profile,
            cache=cache,
            bus=bus,
        )


def _invocation(args, path: str | None = None) -> Invocation:
    """Build the shared front-end preamble from parsed CLI args."""
    file_path = path if path is not None else args.file
    return Invocation(
        path=file_path,
        source=_read_source(file_path),
        spec=_spec(args),
        options=_cli_options(args),
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------
def cmd_check(args) -> int:
    ctx = _invocation(args).front_end()
    flat = ctx.flat
    print(f"{ctx.ast.name}: OK")
    print(f"  {len(flat.statements)} wet operations after unrolling")
    print(f"  inputs: {', '.join(flat.input_fluids) or '(none)'}")
    if flat.aux_fluids:
        print(f"  separator fluids: {', '.join(flat.aux_fluids)}")
    if flat.dynamic_conditions:
        print(f"  dynamic conditions: {len(flat.dynamic_conditions)}")
    return 0


def cmd_dag(args) -> int:
    dag = _invocation(args).front_end().dag
    if args.dot:
        print(dag.to_dot())
        return 0
    print(f"{dag.name}: {dag.node_count} nodes, {dag.edge_count} edges")
    for node_id in dag.topological_order():
        node = dag.node(node_id)
        inbound = ", ".join(
            f"{e.src} ({e.fraction})" for e in dag.in_edges(node_id)
        )
        kind = node.kind.value
        extra = " [unknown volume]" if node.unknown_volume else ""
        print(f"  {node_id} <{kind}>{extra}" + (f" <- {inbound}" if inbound else ""))
    return 0


def cmd_plan(args) -> int:
    compiled = _invocation(args).compile().compiled
    if compiled.is_static:
        print(compiled.plan.summary())
        assignment = compiled.assignment
        print("\nplanned volumes (nl, least-count rounded):")
        for node_id in compiled.final_dag.topological_order():
            if node_id in assignment.node_volume:
                print(f"  {node_id}: {float(assignment.node_volume[node_id]):.4g}")
        from .core.report import fluid_requirements, plan_waste_breakdown

        print()
        print(fluid_requirements(assignment).render())
        waste = plan_waste_breakdown(compiled.plan, assignment)
        if waste.excess or waste.retained:
            print()
            print(waste.render())
    else:
        planner = compiled.planner
        print(
            f"{compiled.name}: statically-unknown volumes; "
            f"{planner.n_partitions} partitions"
        )
        for partition in planner.partitions:
            vnorms = planner.vnorms[partition.index]
            print(f"  partition {partition.index} (epoch {partition.epoch}):")
            for member in partition.members:
                print(
                    f"    {member}: Vnorm {vnorms.node_vnorm.get(member)}"
                )
            for spec_input in partition.constrained:
                availability = (
                    f"{float(spec_input.static_available):g} nl"
                    if spec_input.static_available is not None
                    else f"measured from {spec_input.source}"
                )
                print(
                    f"    constrained {spec_input.node_id}: "
                    f"share {spec_input.share}, {availability}"
                )
    if len(compiled.diagnostics):
        print("\ndiagnostics:")
        print("  " + compiled.diagnostics.render().replace("\n", "\n  "))
    return 0


def _plan_cache(args):
    """Build the PlanCache a compile invocation asked for (or None)."""
    if args.cache_dir is None and not args.batch:
        return None
    from .compiler.cache import PlanCache

    return PlanCache(
        max_entries=args.cache_size, directory=args.cache_dir
    )


def cmd_compile(args) -> int:
    args.file = args.files[0]
    if args.batch or len(args.files) > 1:
        if args.time_passes or args.explain or args.profile:
            raise SystemExit(
                "--time-passes/--explain/--profile instrument a single "
                "compile; batch statistics go to --stats-json"
            )
        return _cmd_compile_batch(args)
    if args.rolled:
        from .compiler.rolled import render_rolled_source

        print(render_rolled_source(_read_source(args.file)).render())
        return 0
    instrumented = (
        args.time_passes
        or args.explain
        or args.profile
        or bool(args.stats_json)
    )
    bus = PassEventBus(fingerprints=True) if instrumented else None
    inv = _invocation(args)
    # one parse + one volume plan + one codegen pass, even when both
    # analyzers are requested
    ctx = inv.compile(
        lint=args.lint,
        certify=args.certify,
        source_lint=args.source_lint,
        race_check=args.race_check,
        profile=args.profile,
        cache=_plan_cache(args),
        bus=bus,
    )
    compiled = ctx.compiled
    print(compiled.listing())
    if len(compiled.diagnostics):
        print(file=sys.stderr)
        print(compiled.diagnostics.render(), file=sys.stderr)
    if args.explain:
        print(file=sys.stderr)
        print(ctx.pass_manager.explain(ctx), file=sys.stderr)
    if args.time_passes:
        print(file=sys.stderr)
        print(render_timing_table(bus), file=sys.stderr)
    if args.profile:
        from .compiler.passes.events import render_profile_table

        print(file=sys.stderr)
        print(render_profile_table(bus), file=sys.stderr)
    if args.stats_json:
        import json

        payload = events_payload(
            bus,
            program=compiled.name,
            machine=inv.spec.name,
            fingerprint=ctx.compile_fingerprint() if ctx.is_static else None,
        )
        if ctx.plan is not None:
            from .compiler.passes.events import plan_payload

            payload["plan"] = plan_payload(ctx.plan)
        if ctx.cache is not None:
            payload["cache"] = ctx.cache.stats.to_dict()
        if args.profile:
            from .compiler.passes.events import profile_payload

            payload["profile"] = profile_payload(bus)
        with open(args.stats_json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 1 if compiled.diagnostics.has_errors else 0


def _cmd_compile_batch(args) -> int:
    import json

    from .compiler.batch import BatchJob, compile_many

    if args.rolled:
        raise SystemExit("--rolled is not available in batch mode")
    if args.source_lint:
        raise SystemExit("--source-lint is not available in batch mode")
    if args.race_check:
        raise SystemExit("--race-check is not available in batch mode")
    spec = _spec(args)
    jobs = []
    for path in args.files:
        name = (
            "stdin"
            if path == "-"
            else os.path.splitext(os.path.basename(path))[0]
        )
        jobs.append(BatchJob(name, source=_read_source(path)))
    report = compile_many(
        jobs,
        spec=spec,
        manager_options=_cli_options(args),
        cache=_plan_cache(args),
        max_workers=args.jobs,
        lint=args.lint,
        certify=args.certify,
    )
    print(report.render())
    stats = report.to_dict()
    cache_stats = stats["cache"]
    print(
        f"cache: {cache_stats['hits']} hit / {cache_stats['misses']} miss "
        f"(rate {cache_stats['hit_rate']:.0%})"
    )
    if args.stats_json:
        with open(args.stats_json, "w", encoding="utf-8") as handle:
            json.dump(stats, handle, indent=2)
            handle.write("\n")
    if report.failed or report.total_errors:
        return 1
    if args.certify and any(
        r.certified_clean is False for r in report.results
    ):
        return 1
    return 0


def cmd_run(args) -> int:
    inv = _invocation(args)
    spec = inv.spec
    compiled = inv.compile().compiled
    models = {}
    for item in args.sep_yield or ():
        unit, __, value = item.partition("=")
        if not value:
            raise SystemExit(f"--sep-yield expects UNIT=FRACTION, got {item!r}")
        models[unit] = FractionalYield(as_fraction(value))
    topology = None
    if args.topology:
        from .machine.topology import bus_topology, ring_topology

        builder = {"bus": bus_topology, "ring": ring_topology}[args.topology]
        topology = builder(spec)
    machine = Machine(spec, separation_models=models, topology=topology)
    executor = AssayExecutor(compiled, machine)
    result = executor.run()
    print(f"executed {result.trace.wet_instruction_count} wet instructions")
    print(f"regenerations: {result.regenerations}")
    if result.skipped_guarded:
        print(f"guarded statements skipped: {result.skipped_guarded}")
    if result.measurements.entries:
        print("measured volumes:")
        for node, volume in result.measurements.entries:
            print(f"  {node}: {float(volume):.3f} nl")
    if result.results:
        print("sensor readings:")
        for name, value in sorted(result.results.items()):
            print(f"  {name} = {float(value):.6g}")
    if args.trace:
        print("\ntrace:")
        print(result.trace.render(limit=args.trace))
    return 0


def _lint_topology(args, spec):
    """The optional channel topology a ``lint --races`` run asked for."""
    if not getattr(args, "topology", None):
        return None
    from .machine.topology import bus_topology, ring_topology

    builder = {"bus": bus_topology, "ring": ring_topology}[args.topology]
    return builder(spec)


def cmd_lint(args) -> int:
    from .analysis import lint_program, lint_text
    from .ir.parse import AISParseError

    inv = _invocation(args)
    spec = inv.spec
    if args.races:
        from .analysis import analyze_races, race_text

        topology = _lint_topology(args, spec)
        if args.assay:
            compiled = inv.compile().compiled
            report = analyze_races(
                compiled.program, spec, topology=topology
            )
        else:
            try:
                report = race_text(
                    inv.source,
                    spec,
                    name=inv.default_name,
                    topology=topology,
                )
            except AISParseError as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
    elif args.source:
        from .analysis import verify_source

        report = verify_source(inv.source, spec, name=inv.default_name)
    elif args.assay:
        compiled = inv.compile().compiled
        report = lint_program(compiled.program, spec)
    else:
        try:
            report = lint_text(inv.source, spec, name=inv.default_name)
        except AISParseError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    if args.json:
        print(report.render_json())
    else:
        print(report.render_text())
    return report.exit_code


def cmd_certify(args) -> int:
    from .analysis.certify import certify, certify_program
    from .ir.parse import AISParseError, parse_ais
    from .machine.topology import bus_topology, ring_topology

    inv = _invocation(args)
    spec = inv.spec
    builder = {"bus": bus_topology, "ring": ring_topology}[args.topology]
    topology = builder(spec)
    if args.assay:
        compiled = inv.compile().compiled
        report = certify(compiled, topology=topology)
    else:
        try:
            program = parse_ais(inv.source, name=inv.default_name)
        except AISParseError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        report = certify_program(program, spec, topology=topology)
    if args.json:
        print(report.render_json())
    else:
        print(report.render_text())
    return report.exit_code


def cmd_bench_regen(args) -> int:
    inv = _invocation(args)
    dag = inv.front_end().dag
    spec = inv.spec
    report = naive_regeneration_count(
        dag, spec.limits, respect_least_count=not args.ignore_least_count
    )
    print(f"regenerations without volume management: {report.regeneration_count}")
    for fluid, count in sorted(report.per_fluid.items()):
        print(f"  {fluid}: {count}")
    if report.hard_failures:
        print(f"hard failures (need cascading): {report.hard_failures}")
    return 0


def cmd_stress(args) -> int:
    from .machine.faults import parse_kinds
    from .runtime.stress import stress_compiled

    inv = _invocation(args)
    spec = inv.spec
    compiled = inv.compile().compiled
    try:
        kinds = parse_kinds(args.kinds.split(",")) if args.kinds else None
    except ValueError as error:
        raise SystemExit(f"--kinds: {error}") from None
    try:
        budget = as_fraction(args.budget) if args.budget else None
    except ValueError:
        raise SystemExit(
            f"--budget expects a volume in nl, got {args.budget!r}"
        ) from None
    report = stress_compiled(
        compiled,
        seeds=args.seeds,
        fault_rate=args.fault_rate,
        **({"kinds": kinds} if kinds is not None else {}),
        budget=budget,
        machine_factory=lambda: Machine(spec),
    )
    if args.json:
        print(report.render_json())
    else:
        print(report.render_text())
    return 0 if report.survived == len(report.scenarios) else 1


def _parse_tokens(items) -> dict[str, str]:
    tokens: dict[str, str] = {}
    for item in items or ():
        token, sep, tenant = item.partition("=")
        if not sep or not token or not tenant:
            raise SystemExit(f"--token expects TOKEN=TENANT, got {item!r}")
        tokens[token] = tenant
    return tokens


def cmd_serve(args) -> int:
    import asyncio

    from .service.server import ReproService, ServiceConfig

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.jobs,
        cache_entries=args.cache_size,
        cache_dir=args.cache_dir,
        ttl_seconds=args.ttl,
        tokens=_parse_tokens(args.token),
        max_source_bytes=args.max_source_bytes,
    )

    async def serve() -> None:
        service = ReproService(config)
        host, port = await service.start()
        print(f"repro serve: listening on http://{host}:{port}", flush=True)
        try:
            await service.serve_forever()
        finally:
            await service.aclose()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass
    return 0


def cmd_client(args) -> int:
    import json as json_module

    from .service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url, token=args.token, tenant=args.tenant)
    if args.kind != "metrics":
        try:
            source = _read_source(args.file)
        except (OSError, UnicodeDecodeError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    try:
        if args.kind == "metrics":
            print(
                json_module.dumps(
                    client.metrics(), indent=2, sort_keys=True
                )
            )
            return 0
        params: dict = {}
        if args.kind == "stress":
            params["seeds"] = args.seeds
            params["fault_rate"] = args.fault_rate
            if args.kinds:
                params["kinds"] = args.kinds.split(",")
            if args.budget:
                params["budget"] = args.budget
        if args.kind in ("lint", "certify") and args.assay:
            params["assay"] = True
        if args.kind == "certify" and args.topology:
            params["topology"] = args.topology
        name = (
            "stdin"
            if args.file == "-"
            else os.path.splitext(os.path.basename(args.file))[0]
        )
        options: dict | None = None
        if args.kind == "compile" and args.objective:
            options = {"objective": args.objective}
        response = client.run(
            args.kind,
            source,
            name=name,
            machine=args.machine,
            params=params,
            options=options,
            timeout=args.timeout,
        )
        job = response["job"]
        sys.stdout.write(
            client.artifact(job["id"]).decode("utf-8")
        )
        return int(response["result"].get("exit_code", 0))
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except (ConnectionError, OSError, TimeoutError) as error:
        print(f"error: cannot reach daemon at {args.url}: {error}",
              file=sys.stderr)
        return 2


# ---------------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Volume-managed microfluidic assay compiler "
        "(PLDI 2008 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, run_options=False, multi=False):
        if multi:
            p.add_argument(
                "files",
                nargs="+",
                help="assay source file(s); - reads one from stdin",
            )
        else:
            p.add_argument("file", help="assay source file, or - for stdin")
        p.add_argument(
            "--machine",
            choices=sorted(MACHINES),
            default="aquacore",
            help="machine configuration (default: aquacore)",
        )
        p.add_argument("--no-lp", action="store_true",
                       help="disable the LP fallback stage")
        p.add_argument("--no-cascade", action="store_true",
                       help="disable cascading of extreme mix ratios")
        p.add_argument("--no-replicate", action="store_true",
                       help="disable static replication")
        p.add_argument(
            "--objective",
            choices=("default", "waste"),
            default="default",
            help="planning objective: 'default' maximises delivered output "
            "(paper-faithful); 'waste' minimises loaded-minus-delivered "
            "reagent volume",
        )
        if run_options:
            p.add_argument(
                "--coeff",
                action="append",
                metavar="SPECIES=VALUE",
                help="optical extinction coefficient for sensing",
            )
            p.add_argument(
                "--sep-yield",
                action="append",
                metavar="UNIT=FRACTION",
                help="separator effluent fraction (e.g. separator1=0.3)",
            )
            p.add_argument(
                "--trace",
                type=int,
                metavar="N",
                help="print the first N trace events",
            )
            p.add_argument(
                "--topology",
                choices=("bus", "ring"),
                help="route transfers over a channel topology (wet time "
                "scales with hop count)",
            )

    p_check = sub.add_parser("check", help="parse and lint an assay")
    p_check.add_argument("file")
    p_check.set_defaults(handler=cmd_check)

    p_dag = sub.add_parser("dag", help="print the volume DAG")
    p_dag.add_argument("file")
    p_dag.add_argument("--dot", action="store_true", help="Graphviz output")
    p_dag.set_defaults(handler=cmd_dag)

    p_plan = sub.add_parser("plan", help="show the volume-management plan")
    common(p_plan)
    p_plan.set_defaults(handler=cmd_plan)

    p_compile = sub.add_parser("compile", help="emit the AIS listing")
    common(p_compile, multi=True)
    p_compile.add_argument(
        "--rolled",
        action="store_true",
        help="emit the loop-preserving listing (paper Figure 11b form) "
        "instead of the unrolled executable program",
    )
    p_compile.add_argument(
        "--lint",
        action="store_true",
        help="run the fluid-safety analyzer on the same compile",
    )
    p_compile.add_argument(
        "--certify",
        action="store_true",
        help="run the plan-certificate verifier on the same compile",
    )
    p_compile.add_argument(
        "--source-lint",
        action="store_true",
        help="run the source-level parametric verifier (fixpoint over the "
        "rolled program) before unrolling",
    )
    p_compile.add_argument(
        "--race-check",
        action="store_true",
        help="run the static race detector on the generated schedule "
        "(schedule-sensitive pairs and RACE-* findings)",
    )
    p_compile.add_argument(
        "--batch",
        action="store_true",
        help="batch pipeline: fingerprint, dedupe, and cache every file "
        "(implied by passing several files)",
    )
    p_compile.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for cold batch compiles (0 = auto)",
    )
    p_compile.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="persistent plan-cache directory (content-addressed JSON)",
    )
    p_compile.add_argument(
        "--cache-size",
        type=int,
        default=512,
        metavar="N",
        help="in-memory plan-cache entries (default: 512)",
    )
    p_compile.add_argument(
        "--stats-json",
        metavar="PATH",
        help="write compile statistics as JSON: the batch report "
        "(hits/misses/latencies) in batch mode, per-pass events for a "
        "single compile",
    )
    p_compile.add_argument(
        "--time-passes",
        action="store_true",
        help="print a per-pass wall/CPU timing table to stderr "
        "(single compile only)",
    )
    p_compile.add_argument(
        "--explain",
        action="store_true",
        help="print the resolved pass plan and which hierarchy attempt "
        "won to stderr (single compile only)",
    )
    p_compile.add_argument(
        "--profile",
        action="store_true",
        help="run each pass under cProfile and print its top cumulative "
        "hotspots to stderr; with --stats-json the hotspots land under "
        'the "profile" key (single compile only)',
    )
    p_compile.set_defaults(handler=cmd_compile)

    p_lint = sub.add_parser(
        "lint",
        help="run the fluid-safety analyzer over an AIS listing",
    )
    p_lint.add_argument("file", help="AIS listing, or - for stdin")
    p_lint.add_argument(
        "--machine",
        choices=sorted(MACHINES),
        default="aquacore",
        help="machine configuration (default: aquacore)",
    )
    p_lint.add_argument(
        "--json", action="store_true", help="emit a JSON report"
    )
    p_lint.add_argument(
        "--assay",
        action="store_true",
        help="treat the input as assay source: compile it, then lint "
        "the generated program",
    )
    p_lint.add_argument(
        "--source",
        action="store_true",
        help="treat the input as assay source and verify the *rolled* "
        "program: one fixpoint whose SRC-* verdicts hold for every "
        "loop bound (no unrolling, no compile)",
    )
    p_lint.add_argument(
        "--races",
        action="store_true",
        help="run the static race detector instead: happens-before + "
        "lockset interference analysis reporting RACE-* findings and "
        "a summary.mhp block (combine with --assay to compile first)",
    )
    p_lint.add_argument(
        "--topology",
        choices=("bus", "ring"),
        help="with --races: channel topology for route-contention "
        "findings (omitted = occupancy/re-banking analysis only)",
    )
    p_lint.set_defaults(handler=cmd_lint)

    p_certify = sub.add_parser(
        "certify",
        help="verify a compiled plan + schedule (translation validation)",
    )
    p_certify.add_argument("file", help="AIS listing, or - for stdin")
    p_certify.add_argument(
        "--machine",
        choices=sorted(MACHINES),
        default="aquacore",
        help="machine configuration (default: aquacore)",
    )
    p_certify.add_argument(
        "--json", action="store_true", help="emit a JSON report"
    )
    p_certify.add_argument(
        "--assay",
        action="store_true",
        help="treat the input as assay source: compile it, then certify "
        "the volume plan and generated schedule",
    )
    p_certify.add_argument(
        "--topology",
        choices=("bus", "ring"),
        default="bus",
        help="channel topology for route/interference checks (default: bus)",
    )
    p_certify.set_defaults(handler=cmd_certify)

    p_run = sub.add_parser("run", help="execute on the AquaCore model")
    common(p_run, run_options=True)
    p_run.set_defaults(handler=cmd_run)

    p_regen = sub.add_parser(
        "bench-regen",
        help="count regenerations under the naive baseline",
    )
    p_regen.add_argument("file")
    p_regen.add_argument(
        "--machine", choices=sorted(MACHINES), default="aquacore"
    )
    p_regen.add_argument(
        "--ignore-least-count",
        action="store_true",
        help="count pure volume exhaustion only (the Table 2 flavour)",
    )
    p_regen.set_defaults(handler=cmd_bench_regen)

    p_stress = sub.add_parser(
        "stress",
        help="run the assay under seeded fault injection and report "
        "a survival matrix",
    )
    common(p_stress)
    p_stress.add_argument(
        "--seeds",
        type=int,
        default=10,
        metavar="N",
        help="number of deterministic fault scenarios (seed k for "
        "scenario k; default: 10)",
    )
    p_stress.add_argument(
        "--fault-rate",
        type=float,
        default=0.05,
        metavar="R",
        help="per-(kind, attempt) fault probability (default: 0.05)",
    )
    p_stress.add_argument(
        "--kinds",
        metavar="CSV",
        help="comma-separated fault kinds to enable (default: all; see "
        "docs/ROBUSTNESS.md for the taxonomy)",
    )
    p_stress.add_argument(
        "--budget",
        metavar="NL",
        help="global regeneration budget in extra input volume (nl)",
    )
    p_stress.add_argument(
        "--json", action="store_true", help="emit the canonical JSON report"
    )
    p_stress.set_defaults(handler=cmd_stress)

    p_serve = sub.add_parser(
        "serve",
        help="run the resident compile service (HTTP/JSON, wire schema "
        "v1; see docs/SERVICE.md)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8642,
        help="listen port (0 picks a free one; default: 8642)",
    )
    p_serve.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="concurrent jobs; >1 also fans cold compiles onto the "
        "persistent worker pool; 0 = auto (default: 1)",
    )
    p_serve.add_argument(
        "--cache-size", type=int, default=512, metavar="N",
        help="plan-cache capacity in entries (default: 512)",
    )
    p_serve.add_argument(
        "--cache-dir", metavar="DIR",
        help="persist plan-cache entries under DIR (shared with the "
        "batch pipeline)",
    )
    p_serve.add_argument(
        "--ttl", type=float, metavar="SECONDS",
        help="expire cache entries after SECONDS (default: never)",
    )
    p_serve.add_argument(
        "--token", action="append", metavar="TOKEN=TENANT",
        help="enable bearer-token auth mapping TOKEN to TENANT "
        "(repeatable; without any, tenants come from X-Repro-Tenant)",
    )
    p_serve.add_argument(
        "--max-source-bytes", type=int, default=262_144, metavar="N",
        help="reject submitted sources larger than N bytes "
        "(default: 262144)",
    )
    p_serve.set_defaults(handler=cmd_serve)

    p_client = sub.add_parser(
        "client",
        help="submit one job to a running repro serve daemon and print "
        "the artifact (the CLI-identical listing or JSON report)",
    )
    p_client.add_argument(
        "kind",
        choices=("compile", "lint", "certify", "stress", "metrics"),
    )
    p_client.add_argument(
        "file", nargs="?", default="-",
        help="source file (or - for stdin); ignored for metrics",
    )
    p_client.add_argument(
        "--url", default="http://127.0.0.1:8642",
        help="daemon base URL (default: http://127.0.0.1:8642)",
    )
    p_client.add_argument("--machine", choices=sorted(MACHINES))
    p_client.add_argument("--token", help="bearer token")
    p_client.add_argument("--tenant", help="tenant name (open mode)")
    p_client.add_argument(
        "--timeout", type=float, default=300.0, metavar="S",
        help="overall job timeout in seconds (default: 300)",
    )
    p_client.add_argument(
        "--assay", action="store_true",
        help="lint/certify: treat the input as assay source",
    )
    p_client.add_argument(
        "--objective", choices=("default", "waste"),
        help="compile: planning objective for the submitted job",
    )
    p_client.add_argument("--topology", choices=("bus", "ring"))
    p_client.add_argument("--seeds", type=int, default=10)
    p_client.add_argument("--fault-rate", type=float, default=0.05)
    p_client.add_argument("--kinds", metavar="CSV")
    p_client.add_argument("--budget", metavar="NL")
    p_client.set_defaults(handler=cmd_client)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (FrontendError, VolumeError) as error:
        # bad assay, or one the machine cannot hold: a coded failure
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # output piped into a pager/head that closed early: not an error
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0
    except (OSError, UnicodeDecodeError) as error:
        # unreadable / missing / non-text input file
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
