"""The ``repro serve`` daemon: a resident, multi-tenant compile service.

One asyncio event loop accepts HTTP/JSON jobs and runs them through the
same pass manager as the CLI:

* **repeated compiles** are one lookup in a worker thread: the request
  digest (source bytes, machine, options) maps, in the tenant's ``src-``
  namespace of the shared :class:`~repro.compiler.cache.PlanCache`, to
  the listing the first compile rendered, valid while the tenant still
  holds the plan it came from;
* **warm compiles** (a new source whose plan the tenant holds) run
  :func:`repro.compiler.batch.compile_one` in a worker thread; the
  job's PassEvents prove the hierarchy prefix was skipped;
* **cold compiles** run the batch driver's pool task
  :func:`~repro.compiler.batch.compile_task` on the persistent worker
  pool (:func:`~repro.compiler.pool.pool_map`) when the service runs
  with more than one worker, else in the job's thread.  The task
  compiles with no cache; the job deposits its plan entry into the
  tenant's namespace;
* **identical concurrent submissions coalesce**: the first becomes the
  leader, every other job (any tenant) awaits the same result and each
  deposits the entry into its *own* tenant namespace;
* **lint / certify / stress** jobs run in worker threads through the job
  bodies the CLI runs (:data:`repro.commands.JOBS`), compiling an assay
  through the tenant's plan cache, and return the exact v1 JSON reports
  the CLI emits.

Endpoints (wire schema v1, see ``docs/SERVICE.md``)::

    GET    /v1/healthz
    GET    /v1/metrics
    POST   /v1/jobs
    GET    /v1/jobs
    GET    /v1/jobs/<id>
    GET    /v1/jobs/<id>/result
    GET    /v1/jobs/<id>/artifact
    DELETE /v1/jobs/<id>
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any

from ..commands import JOBS, ParamError
from ..compiler import batch as batch_module
from ..compiler import pool as pool_module
from ..compiler.cache import SERVED_FIELDS, PlanCache, TenantCache, _TENANT_RE
from ..compiler.cache import entry_from_plan  # noqa: F401  (traced by name)
from ..compiler.passes import PassEvent, PassEventBus, events_payload
from ..compiler.passes.stages import front_end_dag
from ..core.dag import AssayDAG
from ..core.errors import VolumeError
from ..core.fingerprint import compile_fingerprint, plan_key, source_fingerprint
from ..core.hierarchy import VolumeManager
from ..core.serde import dag_to_dict
from ..ir.parse import AISParseError
from ..lang.errors import FrontendError
from ..machine.spec import MACHINES, MachineSpec
from .httpio import HttpError, HttpRequest, read_request, response_bytes
from .jobs import Job, JobState, JobStore
from .metrics import MetricsRegistry
from .schema import (
    DEFAULT_MAX_SOURCE_BYTES,
    WIRE_SCHEMA_VERSION,
    SchemaError,
    parse_job_request,
)

__all__ = [
    "JobFailure",
    "ReproService",
    "ServiceConfig",
    "ServiceHandle",
    "start_in_thread",
]


class JobFailure(Exception):
    """A job that failed for a reportable, non-fatal reason."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass
class ServiceConfig:
    """Everything one daemon instance is allowed to do."""

    host: str = "127.0.0.1"
    port: int = 0
    #: concurrent jobs; >1 additionally enables process-pool fan-out
    #: for cold compiles.  0 = auto (CPU affinity mask).
    workers: int = 1
    cache_entries: int = 512
    cache_dir: str | None = None
    #: plan-cache TTL in seconds (None = entries never expire).
    ttl_seconds: float | None = None
    #: token -> tenant; empty = open mode (tenant from X-Repro-Tenant).
    tokens: dict[str, str] = field(default_factory=dict)
    default_tenant: str = "public"
    max_source_bytes: int = DEFAULT_MAX_SOURCE_BYTES
    #: use the persistent process pool for cold compiles (workers > 1).
    use_process_pool: bool = True

    def __post_init__(self) -> None:
        if self.workers == 0:
            self.workers = pool_module.default_workers()
        if self.workers < 1:
            raise ValueError("workers must be >= 1 (or 0 for auto)")


def _error_payload(code: str, message: str) -> dict[str, Any]:
    return {
        "version": WIRE_SCHEMA_VERSION,
        "error": {"code": code, "message": message},
    }


# ---------------------------------------------------------------------------
# job execution (thread / pool side)
# ---------------------------------------------------------------------------
@dataclass
class _CompileWork:
    """One compile job as its job thread resolves it.

    :meth:`prepare` computes the request digest (source bytes, machine,
    normalized options) and answers from the tenant's ``src-`` entry
    when it can; otherwise it runs the front end for the DAG and the
    compile fingerprint.  Every method runs on a job thread.
    """

    source: str
    spec: MachineSpec
    options: dict[str, Any]
    tcache: TenantCache
    digest: str = ""
    fingerprint: str | None = None
    dag: AssayDAG | None = None
    aux_fluids: tuple[str, ...] = ()

    def prepare(self) -> dict[str, Any] | None:
        """A warm job's summary, or None when its plan is cold.

        Raises JobFailure on a program the front end rejects.
        """
        wall, cpu = time.perf_counter(), time.process_time()
        self.digest = source_fingerprint(self.source, self.spec, self.options)
        served = self.tcache.get_served(self.digest)
        if served is not None:
            self.fingerprint = served["fingerprint"]
            bus = PassEventBus()
            bus.emit(
                PassEvent(
                    name="restore-plan",
                    status="cached",
                    wall_s=time.perf_counter() - wall,
                    cpu_s=time.process_time() - cpu,
                    cache="hit",
                    detail="listing served by request digest",
                )
            )
            return {
                "ok": True,
                **{key: served[key] for key in SERVED_FIELDS},
                "events": events_payload(
                    bus,
                    program=served["program"],
                    machine=self.spec.name,
                    fingerprint=self.fingerprint,
                ),
            }
        try:
            self.dag, self.aux_fluids = front_end_dag(self.source, None, ())
        except (FrontendError, VolumeError) as error:
            raise JobFailure("frontend-error", str(error)) from error
        self.fingerprint = compile_fingerprint(
            self.dag, self.spec.limits, self.spec, self.options
        )
        if not self.tcache.contains(plan_key(self.fingerprint)):
            return None
        return self.render()

    def render(self) -> dict[str, Any]:
        """Render the plan the tenant holds with ``compile_one``."""
        _, summary = batch_module.compile_one(
            self.dag, self.aux_fluids, self.spec, self.options,
            self.fingerprint, self.tcache, bus=PassEventBus(),
        )
        self.remember(summary)
        return summary

    def lead(self, workers: int) -> dict[str, Any]:
        """Compile a cold plan with ``compile_task`` on the pool."""
        payload = {
            "dag": dag_to_dict(self.dag),
            "aux_fluids": list(self.aux_fluids),
            "spec": self.spec,
            "options": self.options,
            "fingerprint": self.fingerprint,
        }
        [summary] = pool_module.pool_map(
            batch_module.compile_task, [payload], max_workers=workers
        )
        return self.follow(summary)

    def follow(self, leader: dict[str, Any]) -> dict[str, Any]:
        """Deposit a cold compile's plan entry in this tenant.

        The compile fingerprint leaves out the assay's name and the
        listing does not, so a coalesced job named differently from its
        leader renders its own listing from the deposited plan.
        """
        if leader["ok"] and leader["entry"] is not None:
            self.tcache.put(plan_key(self.fingerprint), leader["entry"])
        if leader["ok"] and leader["events"]["program"] != self.dag.name:
            return self.render()
        self.remember(leader)
        return leader

    def remember(self, summary: dict[str, Any]) -> None:
        """Store a compiled answer under the request digest."""
        if summary["ok"] and summary["cacheable"]:
            self.tcache.put_source_fingerprint(
                self.digest,
                self.fingerprint,
                listing=summary["listing"],
                plan_status=summary["plan_status"],
                errors=summary["errors"],
                warnings=summary["warnings"],
                program=summary["events"]["program"],
            )


# ---------------------------------------------------------------------------
# the daemon
# ---------------------------------------------------------------------------
class ReproService:
    """One resident compile service; see the module docstring."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.cache = PlanCache(
            max_entries=self.config.cache_entries,
            directory=self.config.cache_dir,
            ttl_seconds=self.config.ttl_seconds,
        )
        self.jobs = JobStore()
        self.metrics = MetricsRegistry()
        self._tenant_caches: dict[str, TenantCache] = {}
        #: compile fingerprint -> future of the leader's summary
        #: (("ok", summary) | ("error", exc)); coalesces duplicates.
        self._inflight: dict[str, asyncio.Future] = {}
        self._sem: asyncio.Semaphore | None = None
        self._threads = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="repro-job"
        )
        self._server: asyncio.AbstractServer | None = None
        self._tasks: set[asyncio.Task] = set()
        self._queue_depth = 0
        self._running = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and start serving; returns the actual (host, port)."""
        self._sem = asyncio.Semaphore(self.config.workers)
        self._server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port
        )
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        """Stop accepting, cancel outstanding jobs, release executors."""
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._threads.shutdown(wait=False, cancel_futures=True)
        # non-blocking inside the event loop (see pool.shutdown_pool)
        pool_module.shutdown_pool()

    # ------------------------------------------------------------------
    # tenancy
    # ------------------------------------------------------------------
    def tenant_cache(self, tenant: str) -> TenantCache:
        view = self._tenant_caches.get(tenant)
        if view is None:
            view = self.cache.for_tenant(tenant)
            self._tenant_caches[tenant] = view
        return view

    def _authenticate(self, request: HttpRequest) -> str:
        if self.config.tokens:
            header = request.headers.get("authorization", "")
            scheme, _, token = header.partition(" ")
            tenant = (
                self.config.tokens.get(token.strip())
                if scheme.lower() == "bearer"
                else None
            )
            if tenant is None:
                raise HttpError(
                    401, "unauthorized", "valid bearer token required"
                )
            return tenant
        tenant = request.headers.get("x-repro-tenant", self.config.default_tenant)
        if not _TENANT_RE.match(tenant):
            raise HttpError(400, "bad-request", f"invalid tenant {tenant!r}")
        return tenant

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_conn(self, reader, writer) -> None:
        response: bytes | None = None
        try:
            request = await read_request(
                reader, max_body=self.config.max_source_bytes + 8192
            )
            if request is not None:
                response = await self._dispatch(request)
        except HttpError as error:
            if error.status in (400, 401, 413):
                self.metrics.request_rejected()
            response = response_bytes(
                error.status, _error_payload(error.code, str(error))
            )
        except ConnectionError:
            response = None  # client vanished mid-request: nothing to say
        except Exception as error:  # pragma: no cover - defensive
            response = response_bytes(
                500,
                _error_payload(
                    "internal-error", f"{type(error).__name__}: {error}"
                ),
            )
        try:
            if response is not None:
                writer.write(response)
                await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            with contextlib.suppress(ConnectionError, OSError):
                writer.close()
                await writer.wait_closed()

    async def _dispatch(self, request: HttpRequest) -> bytes:
        parts = [part for part in request.path.split("/") if part]
        if parts[:1] != ["v1"]:
            raise HttpError(404, "not-found", f"no route {request.path}")
        route = parts[1:]
        if route == ["healthz"] and request.method == "GET":
            return response_bytes(
                200, {"version": WIRE_SCHEMA_VERSION, "ok": True}
            )
        if route == ["metrics"] and request.method == "GET":
            return response_bytes(200, self.metrics_snapshot())
        if route == ["jobs"]:
            tenant = self._authenticate(request)
            if request.method == "POST":
                return self._submit(tenant, request)
            if request.method == "GET":
                jobs = sorted(
                    self.jobs.list_for(tenant), key=lambda j: j.id
                )
                return response_bytes(
                    200,
                    {
                        "version": WIRE_SCHEMA_VERSION,
                        "jobs": [job.status_payload() for job in jobs],
                    },
                )
            raise HttpError(405, "method-not-allowed", request.method)
        if len(route) in (2, 3) and route[0] == "jobs":
            tenant = self._authenticate(request)
            job = self.jobs.get(tenant, route[1])
            if job is None:
                raise HttpError(404, "not-found", f"no job {route[1]}")
            if len(route) == 2:
                if request.method == "GET":
                    return response_bytes(
                        200,
                        {
                            "version": WIRE_SCHEMA_VERSION,
                            "job": job.status_payload(),
                        },
                    )
                if request.method == "DELETE":
                    return self._cancel(job)
                raise HttpError(405, "method-not-allowed", request.method)
            if request.method != "GET":
                raise HttpError(405, "method-not-allowed", request.method)
            if route[2] == "result":
                return self._result(job)
            if route[2] == "artifact":
                return self._artifact(job)
        raise HttpError(404, "not-found", f"no route {request.path}")

    # ------------------------------------------------------------------
    # endpoint bodies
    # ------------------------------------------------------------------
    def _submit(self, tenant: str, request: HttpRequest) -> bytes:
        body = request.json()
        try:
            job_request = parse_job_request(
                body, max_source_bytes=self.config.max_source_bytes
            )
        except SchemaError as error:
            self.metrics.request_rejected()
            return response_bytes(error.status, error.payload())
        job = self.jobs.create(tenant, job_request)
        self.metrics.job_submitted(job_request.kind)
        job.task = asyncio.get_running_loop().create_task(self._run_job(job))
        self._tasks.add(job.task)
        job.task.add_done_callback(self._tasks.discard)
        return response_bytes(
            202, {"version": WIRE_SCHEMA_VERSION, "job": job.status_payload()}
        )

    def _cancel(self, job: Job) -> bytes:
        if job.state is not JobState.QUEUED or job.task is None:
            raise HttpError(
                409,
                "not-cancellable",
                f"job {job.id} is {job.state.value}; only queued jobs "
                "can be cancelled",
            )
        job.task.cancel()
        return response_bytes(
            202, {"version": WIRE_SCHEMA_VERSION, "job": job.status_payload()}
        )

    def _result(self, job: Job) -> bytes:
        if job.state is JobState.DONE and job.result is not None:
            return response_bytes(
                200,
                {
                    "version": WIRE_SCHEMA_VERSION,
                    "job": job.status_payload(),
                    "result": job.result,
                },
            )
        payload = _error_payload(
            "not-finished", f"job {job.id} is {job.state.value}"
        )
        payload["job"] = job.status_payload()
        return response_bytes(409, payload)

    def _artifact(self, job: Job) -> bytes:
        if job.artifact is None:
            payload = _error_payload(
                "not-finished", f"job {job.id} is {job.state.value}"
            )
            payload["job"] = job.status_payload()
            return response_bytes(409, payload)
        return response_bytes(
            200, raw=job.artifact, content_type=job.artifact_type
        )

    def metrics_snapshot(self) -> dict[str, Any]:
        return self.metrics.snapshot(
            queue_depth=self._queue_depth,
            workers_busy=self._running,
            workers_total=self.config.workers,
            cache=self.cache.stats.to_dict(),
            cache_by_tenant={
                tenant: view.tenant_stats.to_dict()
                for tenant, view in sorted(self._tenant_caches.items())
            },
            pool=pool_module.pool_stats(),
        )

    # ------------------------------------------------------------------
    # job execution (event-loop side)
    # ------------------------------------------------------------------
    async def _run_job(self, job: Job) -> None:
        outcome = "failed"
        acquired = False
        assert self._sem is not None
        self._queue_depth += 1
        try:
            await self._sem.acquire()
            acquired = True
            self._queue_depth -= 1
            self._running += 1
            job.state = JobState.RUNNING
            job.started_s = time.time()
            await self._execute(job)
            job.state = JobState.DONE
            outcome = "done"
        except asyncio.CancelledError:
            if not acquired:
                self._queue_depth -= 1
            job.state = JobState.CANCELLED
            job.error = {"code": "cancelled", "message": "job cancelled"}
            outcome = "cancelled"
        except JobFailure as failure:
            job.state = JobState.FAILED
            job.error = {"code": failure.code, "message": str(failure)}
        except Exception as error:  # unexpected: fail the job, not the loop
            job.state = JobState.FAILED
            job.error = {
                "code": "internal-error",
                "message": f"{type(error).__name__}: {error}",
            }
        finally:
            if acquired:
                self._running -= 1
                self._sem.release()
            job.finished_s = time.time()
            self.metrics.job_finished(
                job.request.kind, outcome, job.finished_s - job.created_s
            )

    async def _execute(self, job: Job) -> None:
        request = job.request
        spec = MACHINES[request.machine]
        # the full fingerprint knob set
        options = VolumeManager(spec.limits, **request.options).options_dict()
        loop = asyncio.get_running_loop()
        if request.kind == "compile":
            await self._execute_compile(job, spec, options, loop)
            return
        body = functools.partial(
            JOBS[request.kind],
            request.source,
            spec,
            options,
            request.params,
            name=request.name,
            cache=self.tenant_cache(job.tenant),
        )
        try:
            report = await loop.run_in_executor(self._threads, body)
        except AISParseError as error:
            raise JobFailure("parse-error", str(error)) from error
        except (FrontendError, VolumeError) as error:
            raise JobFailure("frontend-error", str(error)) from error
        except ParamError as error:
            raise JobFailure(
                "bad-params", f"params.{error.param.key}: {error}"
            ) from error
        job.artifact = (report.render_json() + "\n").encode("utf-8")
        job.artifact_type = "application/json; charset=utf-8"
        job.result = {
            "version": WIRE_SCHEMA_VERSION,
            "kind": request.kind,
            "name": request.name,
            "machine": spec.name,
            "report": report.to_dict(),
            "exit_code": report.exit_code,
        }

    async def _execute_compile(self, job, spec, options, loop) -> None:
        work = _CompileWork(
            job.request.source, spec, options, self.tenant_cache(job.tenant)
        )
        summary = await loop.run_in_executor(self._threads, work.prepare)
        job.fingerprint = work.fingerprint
        shared = False
        if summary is not None:
            job.cache = "hit"
        else:
            summary, shared = await self._cold_compile(job, work, loop)
        if not summary["ok"]:
            raise JobFailure(summary["code"], summary["detail"])
        if not shared:
            # a coalesced follower shares the leader's events; folding
            # them in twice would double-count the pass histograms
            self.metrics.observe_pass_events(summary["events"]["passes"])
        job.artifact = (summary["listing"] + "\n").encode("utf-8")
        job.artifact_type = "text/plain; charset=utf-8"
        job.result = {
            "version": WIRE_SCHEMA_VERSION,
            "kind": "compile",
            "name": job.request.name,
            "machine": spec.name,
            "fingerprint": work.fingerprint,
            "cache": job.cache,
            "coalesced": job.coalesced,
            "listing": summary["listing"],
            "plan_status": summary["plan_status"],
            "diagnostics": {
                "errors": summary["errors"],
                "warnings": summary["warnings"],
            },
            "exit_code": 1 if summary["errors"] else 0,
            "stats": {"events": summary["events"]},
        }

    async def _cold_compile(
        self, job, work: _CompileWork, loop
    ) -> tuple[dict[str, Any], bool]:
        """Lead one cold compile, or await the identical one in flight.

        Returns the summary and whether it is the leader's, shared.
        """
        future = self._inflight.get(work.fingerprint)
        if future is not None:
            job.cache = "coalesced"
            job.coalesced = True
            self.metrics.job_coalesced()
            status, value = await future
            if status == "error":
                raise value
            summary = await loop.run_in_executor(
                self._threads, work.follow, value
            )
            return summary, summary is value
        job.cache = "miss"
        future = self._inflight[work.fingerprint] = loop.create_future()
        try:
            summary = await loop.run_in_executor(
                self._threads,
                work.lead,
                self.config.workers if self.config.use_process_pool else 1,
            )
        except BaseException as error:
            outcome = ("error", error)
            raise
        else:
            outcome = ("ok", summary)
            return summary, False
        finally:
            self._inflight.pop(work.fingerprint, None)
            # a cancelled follower cancels the future it awaits
            if not future.done():
                future.set_result(outcome)


# ---------------------------------------------------------------------------
# embedding helper (tests, tools, benchmarks)
# ---------------------------------------------------------------------------
class ServiceHandle:
    """A service running on a daemon thread with its own event loop."""

    def __init__(self, url, service, loop, thread):
        self.url = url
        self.service = service
        self._loop = loop
        self._thread = thread

    def stop(self, timeout: float = 30.0) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_in_thread(
    config: ServiceConfig | None = None, **overrides: Any
) -> ServiceHandle:
    """Boot a :class:`ReproService` on a background thread.

    The embedding pattern the in-process test harness, the corpus smoke
    tool, and the service benchmark all share.
    """
    resolved = config or ServiceConfig(**overrides)
    started = threading.Event()
    box: dict[str, Any] = {}

    def runner() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        service = ReproService(resolved)
        try:
            host, port = loop.run_until_complete(service.start())
        except Exception as error:  # bind failure etc.
            box["error"] = error
            started.set()
            loop.close()
            return
        box.update(
            service=service,
            loop=loop,
            url=f"http://{host}:{port}",
        )
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(service.aclose())
            loop.close()

    thread = threading.Thread(target=runner, daemon=True, name="repro-serve")
    thread.start()
    if not started.wait(timeout=60):
        raise RuntimeError("service failed to start within 60s")
    if "error" in box:
        raise box["error"]
    return ServiceHandle(box["url"], box["service"], box["loop"], thread)
