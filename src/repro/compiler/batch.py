"""Batch compilation: dedupe by fingerprint, fan out over processes.

The ROADMAP's production claim is compiling *fleets* of assays under
traffic, not one at a time.  :func:`compile_many` is that driver:

1. **warm fast path** — each source job is first looked up by its *source
   fingerprint* (raw text + spec + options); a warm hit resolves straight
   to the cached plan without parsing, unrolling, DAG building, planning,
   rounding, or codegen;
2. **fingerprint + dedupe** — remaining jobs are parsed to DAGs and
   content-addressed; identical fingerprints within the batch compile
   exactly once (think a calibration sweep submitting the same dilution
   ladder 50 times);
3. **fan-out** — unique cold fingerprints go to :func:`compile_task`
   on the process-wide warm pool (:func:`~repro.compiler.pool.pool_map`,
   ``max_workers``); workers receive the serialized DAG (no re-parsing)
   and return serialized plan entries, which the parent deposits in the
   shared :class:`~repro.compiler.cache.PlanCache`.

With ``lint``/``certify``, warm hits run :func:`compile_one` so codegen
and the analyzers see a real program — the plan stage is still served
from cache.  Without them, hits skip everything downstream of the hash
lookup, which is what gives the warm corpus re-run its
order-of-magnitude throughput.

``repro serve`` runs the same two functions: :func:`compile_one` for
warm hits, :func:`compile_task` for cold compiles.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any
from collections.abc import Mapping, Sequence

from ..core.dag import AssayDAG
from ..core.errors import VolumeError
from ..core.fingerprint import (
    compile_fingerprint,
    plan_key,
    source_fingerprint,
)
from ..core.hierarchy import VolumeManager
from ..core.serde import SerdeError, dag_from_dict, dag_to_dict
from ..lang.errors import FrontendError
from ..machine.spec import AQUACORE_SPEC, MachineSpec
from . import cache as plan_cache
from .cache import PlanCache
from .diagnostics import Severity, severity_counts
from .passes import (
    CompiledAssay,
    PassEventBus,
    events_payload,
    front_end_dag,
    run_compile,
)
from .pool import default_workers, pool_map, worker_cache

__all__ = [
    "BatchJob",
    "BatchItemResult",
    "BatchReport",
    "compile_many",
    "compile_one",
    "compile_task",
    "default_workers",
]


@dataclass
class BatchJob:
    """One unit of batch work: assay source text or a prebuilt DAG."""

    name: str
    source: str | None = None
    dag: AssayDAG | None = None
    aux_fluids: Sequence[str] = ()

    def __post_init__(self) -> None:
        if (self.source is None) == (self.dag is None):
            raise ValueError(
                f"job {self.name!r}: exactly one of source/dag required"
            )


@dataclass
class BatchItemResult:
    """Outcome of one batch job."""

    name: str
    #: "hit" (served from cache), "compiled" (cold compile),
    #: "deduped" (identical fingerprint compiled earlier in this batch),
    #: "failed" (frontend or compile error).
    status: str
    fingerprint: str | None = None
    elapsed_s: float = 0.0
    plan_status: str | None = None
    cacheable: bool = True
    errors: int = 0
    warnings: int = 0
    certified_clean: bool | None = None
    detail: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "status": self.status,
            "fingerprint": self.fingerprint,
            "elapsed_ms": round(self.elapsed_s * 1000, 3),
            "plan_status": self.plan_status,
            "cacheable": self.cacheable,
            "errors": self.errors,
            "warnings": self.warnings,
            "certified_clean": self.certified_clean,
            "detail": self.detail,
        }


@dataclass
class BatchReport:
    """Everything one :func:`compile_many` run produced."""

    results: list[BatchItemResult] = field(default_factory=list)
    workers: int = 1
    wall_s: float = 0.0
    cache_stats: dict[str, Any] = field(default_factory=dict)

    def _count(self, status: str) -> int:
        return sum(1 for r in self.results if r.status == status)

    @property
    def hits(self) -> int:
        return self._count("hit")

    @property
    def compiled(self) -> int:
        return self._count("compiled")

    @property
    def deduped(self) -> int:
        return self._count("deduped")

    @property
    def failed(self) -> int:
        return self._count("failed")

    @property
    def total_errors(self) -> int:
        return sum(r.errors for r in self.results) + self.failed

    @property
    def throughput(self) -> float:
        """Completed jobs per second of wall time."""
        done = len(self.results) - self.failed
        return done / self.wall_s if self.wall_s > 0 else 0.0

    def to_dict(self) -> dict[str, Any]:
        elapsed = [r.elapsed_s for r in self.results] or [0.0]
        return {
            "jobs": len(self.results),
            "hits": self.hits,
            "compiled": self.compiled,
            "deduped": self.deduped,
            "failed": self.failed,
            "workers": self.workers,
            "wall_s": round(self.wall_s, 6),
            "throughput_per_s": round(self.throughput, 3),
            "latency_ms": {
                "mean": round(sum(elapsed) / len(elapsed) * 1000, 3),
                "max": round(max(elapsed) * 1000, 3),
            },
            "cache": self.cache_stats,
            "results": [r.to_dict() for r in self.results],
        }

    def render(self) -> str:
        lines = []
        width = max((len(r.name) for r in self.results), default=4)
        for result in self.results:
            note = result.detail and f"  ({result.detail})" or ""
            certified = (
                ""
                if result.certified_clean is None
                else ("  certified" if result.certified_clean
                      else "  CERTIFY-FAIL")
            )
            lines.append(
                f"  {result.name:<{width}}  {result.status:<8}  "
                f"{result.elapsed_s * 1000:8.2f} ms  "
                f"{result.plan_status or '-':<12}{certified}{note}"
            )
        lines.append(
            f"{len(self.results)} job(s): {self.hits} hit, "
            f"{self.compiled} compiled, {self.deduped} deduped, "
            f"{self.failed} failed in {self.wall_s:.3f}s "
            f"({self.throughput:.1f} jobs/s, {self.workers} worker(s))"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# one compile: the body and the pool task both front ends run
# ---------------------------------------------------------------------------
def compile_one(
    dag: AssayDAG,
    aux_fluids: Sequence[str],
    spec: MachineSpec,
    options: Mapping[str, object],
    fingerprint: str,
    cache: PlanCache | None = None,
    *,
    name: str | None = None,
    lint: bool = False,
    certify: bool = False,
    bus: PassEventBus | None = None,
) -> tuple[CompiledAssay | None, dict[str, Any]]:
    """Compile one front-ended DAG in-process; returns ``(compiled, summary)``.

    A ``cache`` holding ``fingerprint`` serves the plan stage (a warm
    hit); codegen and the analyzers still run.  The summary is JSON-able
    and has one shape for every caller: ``ok`` (else ``code``/``detail``),
    ``plan_status``, ``cacheable``, ``errors``, ``warnings``,
    ``certified_clean`` (None unless ``certify``), ``listing``,
    ``events`` (None without a ``bus``) and ``elapsed_s``.
    """
    started = time.perf_counter()
    try:
        compiled = run_compile(
            dag=dag,
            spec=spec,
            name=name,
            aux_fluids=tuple(aux_fluids),
            manager=VolumeManager(spec.limits, **options),
            lint=lint,
            certify=certify,
            cache=cache,
            bus=bus,
        ).compiled
    except (FrontendError, VolumeError) as error:
        return None, {
            "ok": False,
            "code": "compile-error",
            "detail": str(error),
            "elapsed_s": time.perf_counter() - started,
        }
    items = compiled.diagnostics.items
    counts = severity_counts(items)
    return compiled, {
        "ok": True,
        "plan_status": (
            compiled.plan.status if compiled.plan is not None else "runtime"
        ),
        "cacheable": compiled.plan is not None,
        "errors": counts["error"],
        "warnings": counts["warning"],
        "certified_clean": (
            not any(
                item.code.startswith(("PLAN-", "SCHED-"))
                and item.severity is not Severity.NOTE
                for item in items
            )
            if certify
            else None
        ),
        "listing": compiled.listing(),
        "events": (
            None
            if bus is None
            else events_payload(
                bus,
                program=compiled.name,
                machine=spec.name,
                fingerprint=fingerprint,
            )
        ),
        "elapsed_s": time.perf_counter() - started,
    }


def compile_task(payload: dict[str, Any]) -> dict[str, Any]:
    """Compile one cold job; runs in a pool worker or inline.

    The payload carries :func:`compile_one`'s arguments with the DAG in
    serde form (``"dag"``), so workers never re-run the frontend.  The
    summary gains ``entry``: the serialized plan for the parent to
    deposit, or None when the plan is runtime-deferred or does not
    serialize.  This is the only compile path that makes a cache entry.
    """
    arguments = dict(payload)
    compiled, summary = compile_one(
        dag_from_dict(arguments.pop("dag")),
        # in a persistent-pool worker a read-mostly handle over the
        # parent's cache directory (vnorm memo, plan prefix hits)
        cache=worker_cache(),
        bus=PassEventBus(),
        **arguments,
    )
    summary["entry"] = None
    if summary["ok"] and summary["cacheable"]:
        try:
            # looked up on its module, so a tracer wrapping it sees the call
            summary["entry"] = plan_cache.entry_from_plan(
                compiled.plan, compiled.assignment, payload["fingerprint"]
            )
        except SerdeError:
            summary["cacheable"] = False
    return summary


# ---------------------------------------------------------------------------
# the batch driver
# ---------------------------------------------------------------------------
def _item(
    name: str, status: str, fingerprint: str, summary: dict, elapsed_s: float
) -> BatchItemResult:
    """One job's result row from a :func:`compile_one` summary."""
    if not summary["ok"]:
        return BatchItemResult(
            name, "failed", fingerprint, elapsed_s,
            cacheable=False, detail=summary["detail"],
        )
    fields = ("plan_status", "cacheable", "errors", "warnings", "certified_clean")
    return BatchItemResult(
        name, status, fingerprint, elapsed_s,
        **{key: summary[key] for key in fields},
    )


def compile_many(
    jobs: Sequence[BatchJob],
    *,
    spec: MachineSpec = AQUACORE_SPEC,
    manager_options: Mapping[str, object] | None = None,
    cache: PlanCache | None = None,
    max_workers: int = 1,
    lint: bool = False,
    certify: bool = False,
) -> BatchReport:
    """Compile a fleet of assays with dedupe, caching, and fan-out.

    Args:
        jobs: the batch; see :class:`BatchJob`.
        spec: machine configuration shared by the whole batch.
        manager_options: keyword arguments for each worker's
            :class:`~repro.core.hierarchy.VolumeManager` (``use_lp``,
            ``allow_cascading``, ...); part of every fingerprint.
        cache: shared plan cache; a private in-memory one is created when
            omitted (so intra-batch dedupe still works).
        max_workers: worker processes for cold compiles, on the
            process-wide warm pool (:mod:`repro.compiler.pool`); ``1``
            compiles in-process (still deduped and cached); ``0``
            auto-detects.
        lint / certify: run the analyzers on every job; warm hits then
            go through :func:`compile_one` with the plan served from
            cache.

    Returns:
        A :class:`BatchReport`; no exception escapes per-job compilation
        (failures are reported as ``status="failed"`` results).
    """
    if max_workers == 0:
        max_workers = default_workers()
    if max_workers < 1:
        raise ValueError("max_workers must be >= 1 (or 0 for auto)")
    materialize = lint or certify
    cache = cache if cache is not None else PlanCache()
    # Normalize to the full knob set so batch fingerprints equal the
    # pipeline's static fingerprints (a manager built from partial options
    # fills in the same defaults).
    options = VolumeManager(
        spec.limits, **dict(manager_options or {})
    ).options_dict()
    started = time.perf_counter()

    results: list[BatchItemResult | None] = [None] * len(jobs)
    #: fingerprint -> job indices; the first one compiles.
    pending: dict[str, list[int]] = {}
    payloads: dict[str, dict[str, Any]] = {}

    for index, job in enumerate(jobs):
        item_started = time.perf_counter()
        src_fp = fingerprint = entry = None
        if job.source is not None:
            src_fp = source_fingerprint(job.source, spec, options)
            if not materialize:
                # warm fast path: a known source skips the front end
                fingerprint = cache.get_source_fingerprint(src_fp)
        if fingerprint is not None:
            entry = cache.get(plan_key(fingerprint))
        if entry is None:
            try:
                # the front-end passes validate the DAG on the way through
                dag, aux_fluids = front_end_dag(
                    job.source, job.dag, job.aux_fluids
                )
                fingerprint = compile_fingerprint(
                    dag, spec.limits, spec, options
                )
            except (FrontendError, VolumeError) as error:
                results[index] = BatchItemResult(
                    name=job.name,
                    status="failed",
                    elapsed_s=time.perf_counter() - item_started,
                    cacheable=False,
                    detail=str(error),
                )
                continue
            if src_fp is not None:
                cache.put_source_fingerprint(src_fp, fingerprint)
            if cache.contains(plan_key(fingerprint)):
                if materialize:
                    _, summary = compile_one(
                        dag, aux_fluids, spec, options, fingerprint, cache,
                        name=job.name, lint=lint, certify=certify,
                    )
                    results[index] = _item(
                        job.name, "hit", fingerprint, summary,
                        time.perf_counter() - item_started,
                    )
                    continue
                entry = cache.get(plan_key(fingerprint))
        if entry is not None:
            results[index] = BatchItemResult(
                name=job.name,
                status="hit",
                fingerprint=fingerprint,
                elapsed_s=time.perf_counter() - item_started,
                plan_status=entry["plan"]["status"],
                cacheable=True,
            )
            continue
        if fingerprint in pending:
            pending[fingerprint].append(index)
            continue
        cache.stats.record_miss(plan_key(fingerprint))
        pending[fingerprint] = [index]
        payloads[fingerprint] = {
            "dag": dag_to_dict(dag),
            "aux_fluids": list(aux_fluids),
            "spec": spec,
            "options": options,
            "fingerprint": fingerprint,
            "name": job.name,
            "lint": lint,
            "certify": certify,
        }

    # fan the unique cold fingerprints out; a lone one compiles inline
    summaries = pool_map(
        compile_task,
        payloads.values(),
        max_workers=max_workers if len(payloads) > 1 else 1,
        cache_dir=cache.directory,
    )
    for (fingerprint, indices), summary in zip(pending.items(), summaries):
        if summary["ok"] and summary["entry"] is not None:
            cache.put(plan_key(fingerprint), summary["entry"])
        for position, index in enumerate(indices):
            results[index] = _item(
                jobs[index].name,
                "compiled" if position == 0 else "deduped",
                fingerprint,
                summary,
                summary["elapsed_s"] if position == 0 else 0.0,
            )

    return BatchReport(
        results=[r for r in results if r is not None],
        workers=max_workers,
        wall_s=time.perf_counter() - started,
        cache_stats=cache.stats.to_dict(),
    )
