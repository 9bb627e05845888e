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
3. **fan-out** — unique cold fingerprints are compiled in parallel worker
   processes (``max_workers``); workers receive the serialized DAG (no
   re-parsing) and return serialized plan entries, which the parent
   deposits in the shared :class:`~repro.compiler.cache.PlanCache`.
   Fan-out runs on the process-wide *persistent* pool
   (:mod:`repro.compiler.pool`): workers are spawned once with the
   compiler stack pre-imported and a read-mostly cache handle, then
   reused by every subsequent batch.

With ``lint``/``certify`` (or ``materialize_hits=True``), warm hits are
re-materialized through :func:`~repro.compiler.passes.run_compile` so
codegen and the analyses run — the plan stage is still served from cache.
Without them, hits skip everything downstream of the hash lookup, which is
what gives the warm corpus re-run its order-of-magnitude throughput.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
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
from .cache import PlanCache, entry_from_plan
from .diagnostics import Severity, severity_counts
from .passes import front_end_dag, run_compile
from .pool import default_workers, pool_map, worker_cache

__all__ = [
    "BatchJob",
    "BatchItemResult",
    "BatchReport",
    "compile_many",
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
# worker side
# ---------------------------------------------------------------------------
def _severity_counts(diagnostics) -> dict[str, int]:
    """Error/warning tallies via the shared severity table."""
    return severity_counts(diagnostics.items)


def _compile_payload(payload: dict[str, Any]) -> dict[str, Any]:
    """Compile one serialized job; runs in a worker process (or inline).

    The payload carries the already-built DAG in serde form, so workers
    never re-run the frontend.  Returns a JSON-able summary plus the cache
    entry (or None when the plan is uncacheable / runtime-deferred).
    """
    started = time.perf_counter()
    spec: MachineSpec = payload["spec"]
    dag = dag_from_dict(payload["dag"])
    manager = VolumeManager(spec.limits, **payload["options"])
    try:
        compiled = run_compile(
            dag=dag,
            spec=spec,
            name=payload["name"],
            aux_fluids=tuple(payload["aux_fluids"]),
            manager=manager,
            lint=payload["lint"],
            certify=payload["certify"],
            # inside a persistent-pool worker this is a read-mostly handle
            # over the parent's cache directory (vnorm memo + plan prefix
            # hits); inline it is None, exactly as before.
            cache=worker_cache(),
        ).compiled
    except (FrontendError, VolumeError) as error:
        return {
            "ok": False,
            "detail": str(error),
            "elapsed_s": time.perf_counter() - started,
        }
    entry = None
    cacheable = compiled.plan is not None
    if cacheable:
        try:
            entry = entry_from_plan(
                compiled.plan, compiled.assignment, payload["fingerprint"]
            )
        except SerdeError:
            cacheable = False
    counts = _severity_counts(compiled.diagnostics)
    certified_clean: bool | None = None
    if payload["certify"]:
        certified_clean = not any(
            item.code.startswith(("PLAN-", "SCHED-"))
            and item.severity is not Severity.NOTE
            for item in compiled.diagnostics.items
        )
    return {
        "ok": True,
        "entry": entry,
        "cacheable": cacheable,
        "plan_status": (
            compiled.plan.status if compiled.plan is not None else "runtime"
        ),
        "errors": counts["error"],
        "warnings": counts["warning"],
        "certified_clean": certified_clean,
        "elapsed_s": time.perf_counter() - started,
    }


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------
def _frontend(job: BatchJob):
    """Run the pass-manager front end to (dag, aux_fluids)."""
    return front_end_dag(job.source, job.dag, job.aux_fluids)


def _result_from_summary(
    name: str, status: str, fingerprint: str, summary: dict[str, Any]
) -> BatchItemResult:
    return BatchItemResult(
        name=name,
        status=status,
        fingerprint=fingerprint,
        elapsed_s=summary["elapsed_s"],
        plan_status=summary.get("plan_status"),
        cacheable=summary.get("cacheable", False),
        errors=summary.get("errors", 0),
        warnings=summary.get("warnings", 0),
        certified_clean=summary.get("certified_clean"),
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
    materialize_hits: bool | None = None,
    persistent_pool: bool = True,
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
        max_workers: worker processes for cold compiles; ``1`` compiles
            in-process (still deduped and cached); ``0`` auto-detects.
        lint / certify: run the analyzers on every job (forces hit
            materialization).
        materialize_hits: force warm hits through codegen even without
            the analyzers; default False unless lint/certify.
        persistent_pool: fan out on the process-wide warm worker pool
            (:mod:`repro.compiler.pool`), reused across ``compile_many``
            calls; ``False`` restores the per-batch throwaway executor.

    Returns:
        A :class:`BatchReport`; no exception escapes per-job compilation
        (failures are reported as ``status="failed"`` results).
    """
    if max_workers == 0:
        max_workers = default_workers()
    if max_workers < 1:
        raise ValueError("max_workers must be >= 1 (or 0 for auto)")
    if materialize_hits is None:
        materialize_hits = lint or certify
    cache = cache if cache is not None else PlanCache()
    # Normalize to the full knob set so batch fingerprints equal the
    # pipeline's static fingerprints (a manager built from partial options
    # fills in the same defaults).
    options = VolumeManager(
        spec.limits, **dict(manager_options or {})
    ).options_dict()
    started = time.perf_counter()

    results: list[BatchItemResult | None] = [None] * len(jobs)
    #: fingerprint -> list of (job index, name); first entry compiles.
    pending: "dict[str, list[int]]" = {}
    payloads: dict[str, dict[str, Any]] = {}

    for index, job in enumerate(jobs):
        item_started = time.perf_counter()
        src_fp: str | None = None
        if job.source is not None:
            src_fp = source_fingerprint(job.source, spec, options)
            if not materialize_hits:
                fingerprint = cache.get_source_fingerprint(src_fp)
                if fingerprint is not None:
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
        try:
            # the front-end passes validate the DAG on the way through
            dag, aux_fluids = _frontend(job)
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
            results[index] = _serve_hit(
                job, dag, aux_fluids, fingerprint, spec, options, cache,
                lint, certify, materialize_hits, item_started,
            )
            if results[index] is not None:
                continue
        if fingerprint in pending:
            pending[fingerprint].append(index)
            continue
        cache.stats.record_miss(plan_key(fingerprint))
        pending[fingerprint] = [index]
        payloads[fingerprint] = {
            "name": job.name,
            "dag": dag_to_dict(dag),
            "aux_fluids": list(aux_fluids),
            "spec": spec,
            "options": options,
            "lint": lint,
            "certify": certify,
            "fingerprint": fingerprint,
        }

    # ------------------------------------------------------------------
    # fan the unique cold fingerprints out
    # ------------------------------------------------------------------
    order = list(pending)
    if order:
        if max_workers > 1 and len(order) > 1:
            items = [payloads[fp] for fp in order]
            if persistent_pool:
                summaries = pool_map(
                    _compile_payload,
                    items,
                    max_workers=max_workers,
                    cache_dir=cache.directory,
                )
            else:
                with ProcessPoolExecutor(max_workers=max_workers) as pool:
                    summaries = list(pool.map(_compile_payload, items))
        else:
            summaries = [_compile_payload(payloads[fp]) for fp in order]
        for fingerprint, summary in zip(order, summaries):
            indices = pending[fingerprint]
            if not summary["ok"]:
                for position, index in enumerate(indices):
                    results[index] = BatchItemResult(
                        name=jobs[index].name,
                        status="failed",
                        fingerprint=fingerprint,
                        elapsed_s=(
                            summary["elapsed_s"] if position == 0 else 0.0
                        ),
                        cacheable=False,
                        detail=summary["detail"],
                    )
                continue
            if summary["entry"] is not None:
                cache.put(plan_key(fingerprint), summary["entry"])
            for position, index in enumerate(indices):
                status = "compiled" if position == 0 else "deduped"
                result = _result_from_summary(
                    jobs[index].name, status, fingerprint, summary
                )
                if position > 0:
                    result.elapsed_s = 0.0
                results[index] = result

    report = BatchReport(
        results=[r for r in results if r is not None],
        workers=max_workers,
        wall_s=time.perf_counter() - started,
        cache_stats=cache.stats.to_dict(),
    )
    return report


def _serve_hit(
    job: BatchJob,
    dag: AssayDAG,
    aux_fluids,
    fingerprint: str,
    spec: MachineSpec,
    options: dict[str, object],
    cache: PlanCache,
    lint: bool,
    certify: bool,
    materialize: bool,
    item_started: float,
) -> BatchItemResult | None:
    """Serve one warm job; returns None if the entry turned out unusable
    (caller then treats the job as cold)."""
    if not materialize:
        entry = cache.get(plan_key(fingerprint))
        if entry is None:
            return None
        return BatchItemResult(
            name=job.name,
            status="hit",
            fingerprint=fingerprint,
            elapsed_s=time.perf_counter() - item_started,
            plan_status=entry["plan"]["status"],
            cacheable=True,
        )
    manager = VolumeManager(spec.limits, **options, cache=cache)
    try:
        compiled = run_compile(
            dag=dag,
            spec=spec,
            name=job.name,
            aux_fluids=tuple(aux_fluids),
            manager=manager,
            lint=lint,
            certify=certify,
            cache=cache,
        ).compiled
    except (FrontendError, VolumeError) as error:
        return BatchItemResult(
            name=job.name,
            status="failed",
            fingerprint=fingerprint,
            elapsed_s=time.perf_counter() - item_started,
            cacheable=False,
            detail=str(error),
        )
    counts = _severity_counts(compiled.diagnostics)
    certified_clean: bool | None = None
    if certify:
        certified_clean = not any(
            item.code.startswith(("PLAN-", "SCHED-"))
            and item.severity is not Severity.NOTE
            for item in compiled.diagnostics.items
        )
    return BatchItemResult(
        name=job.name,
        status="hit",
        fingerprint=fingerprint,
        elapsed_s=time.perf_counter() - item_started,
        plan_status=(
            compiled.plan.status if compiled.plan is not None else "runtime"
        ),
        cacheable=compiled.plan is not None,
        errors=counts["error"],
        warnings=counts["warning"],
        certified_clean=certified_clean,
    )
