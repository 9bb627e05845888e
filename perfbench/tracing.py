"""Spans recorded from outside the program, around calls into each layer.

A :class:`Tracer` replaces public layer functions *where they are
imported* (``repro.compiler.passes.stages.exact_dagsolve``,
``repro.core.replication.compute_vnorms``, ...) with wrappers that record
one span per call: name, start, end, parent span, and a trace id shared
by every span of one compile, job or scenario.  Spans stay in memory
until the run ends.  A layer's self time is its span's duration minus
the time its child spans cover.

Nothing is patched until :meth:`Tracer.install`; :meth:`Tracer.uninstall`
restores the originals, so one process can measure untraced and traced
phases back to back.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

Counter = Callable[[Any, tuple, dict], dict[str, float]]


@dataclass(frozen=True)
class Wrap:
    """Where a layer is entered: ``module``'s attribute ``attr``.

    ``attr`` may name a class method as ``Class.method``.  ``count``
    turns ``(result, args, kwargs)`` into per-span counters.
    """

    module: str
    attr: str
    span: str
    count: Counter | None = None


def _rewrites(result, args, kwargs):
    return {"rewrites": len(result[1])}


def _lp_stats(result, args, kwargs):
    stats = args[0].last_stats
    return {"reused": stats["reused"], "nodes": stats["nodes"]}


STAGES = "repro.compiler.passes.stages"

#: the compiler layers, wrapped where the pass stages import them.
COMPILE_WRAPS = (
    Wrap(STAGES, "parse", "lang.parse"),
    Wrap(STAGES, "analyze", "lang.parse"),
    Wrap(
        STAGES, "unroll", "lang.unroll",
        lambda r, a, k: {"wet_ops": len(r.statements)},
    ),
    Wrap(STAGES, "build_dag_from_flat", "ir.build_dag"),
    Wrap(STAGES, "exact_dagsolve", "core.dagsolve"),
    Wrap(STAGES, "dispense", "core.dagsolve_ref"),
    Wrap("repro.core.replication", "compute_vnorms", "core.dagsolve_ref"),
    Wrap("repro.core.replication", "dispense", "core.dagsolve_ref"),
    Wrap("repro.core.runtime_assign", "dispense", "core.dagsolve_ref"),
    Wrap(STAGES, "iterative_replication", "core.replicate", _rewrites),
    Wrap(STAGES, "IncrementalLPBuilder.build", "core.lp.build", _lp_stats),
    Wrap(STAGES, "solve_model", "core.lp.solve"),
    Wrap(STAGES, "find_extreme_mixes", "core.cascade"),
    Wrap(STAGES, "cascade_extreme_mixes", "core.cascade", _rewrites),
    Wrap(STAGES, "round_assignment", "core.round"),
    Wrap(
        "repro.analysis.certify", "certify", "analysis.certify",
        lambda r, a, k: {"findings": len(r.findings)},
    ),
    Wrap(
        STAGES, "generate", "compiler.codegen",
        lambda r, a, k: {"instructions": len(r[0].instructions)},
    ),
)

#: the executor, its regeneration path and the machine interpreter.
RUNTIME_WRAPS = (
    Wrap("repro.runtime.executor", "AssayExecutor.run", "runtime.executor"),
    Wrap(
        "repro.runtime.executor", "AssayExecutor._regenerate",
        "runtime.regeneration",
    ),
    Wrap("repro.machine.interpreter", "Machine.execute", "machine.execute"),
)

#: the daemon's warm path: fingerprint, cache, serde (plus the compiler).
SERVICE_WRAPS = COMPILE_WRAPS + (
    Wrap("repro.service.server", "compile_fingerprint", "core.fingerprint"),
    Wrap("repro.core.fingerprint", "compile_fingerprint", "core.fingerprint"),
    Wrap("repro.compiler.cache", "PlanCache.get", "compiler.cache.get"),
    Wrap("repro.compiler.cache", "PlanCache.contains", "compiler.cache.get"),
    Wrap("repro.compiler.cache", "PlanCache.get_plan", "compiler.cache.get"),
    Wrap("repro.compiler.cache", "PlanCache.put", "compiler.cache.put"),
    Wrap("repro.compiler.cache", "PlanCache.put_plan", "compiler.cache.put"),
    Wrap("repro.compiler.cache", "plan_from_entry", "core.serde"),
    Wrap("repro.compiler.cache", "entry_from_plan", "core.serde"),
    Wrap("repro.service.server", "entry_from_plan", "core.serde"),
    Wrap("repro.service.server", "dag_to_dict", "core.serde"),
)


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        #: ``[trace, span, parent, name, start, end, counters]`` rows.
        self.spans: list[list[Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[list[Any]]:
        """Record one span; a span opened with no parent starts a trace."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        row = [
            parent[0] if parent else next(self._ids),
            next(self._ids),
            parent[1] if parent else None,
            name,
            time.monotonic(),
            None,
            None,
        ]
        stack.append(row)
        try:
            yield row
        finally:
            row[5] = time.monotonic()
            stack.pop()
            self.spans.append(row)

    def record(
        self, name: str, start: float, end: float, counters: dict | None = None
    ) -> None:
        """Add a finished root span timed by the caller (async work)."""
        self.spans.append(
            [next(self._ids), next(self._ids), None, name, start, end, counters]
        )

    def _wrapper(self, original: Callable, wrap: Wrap) -> Callable:
        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(wrap.span) as row:
                result = original(*args, **kwargs)
                if wrap.count is not None:
                    row[6] = wrap.count(result, args, kwargs)
                return result

        return traced

    # -- patching ----------------------------------------------------------
    def install(self, wraps: Iterable[Wrap]) -> None:
        for wrap in wraps:
            owner: Any = importlib.import_module(wrap.module)
            *path, attr = wrap.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if path else getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, wrap))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def layer_totals(
    spans: list[list[Any]], *, since: float = float("-inf")
) -> dict[str, dict[str, float]]:
    """Per span name: calls, self ms, inclusive ms, summed counters.

    Only spans that start at or after ``since`` count.  Self time is the
    span's duration minus the durations of its direct children.  The
    inclusive time counts only the outermost span of a name, so a layer
    that calls itself is not counted twice.
    """
    child_s: dict[int, float] = defaultdict(float)
    names = {row[1]: row[3] for row in spans}
    for row in spans:
        if row[2] is not None:
            child_s[row[2]] += row[5] - row[4]
    totals: dict[str, dict[str, float]] = {}
    for trace, span, parent, name, start, end, counters in spans:
        if start < since:
            continue
        entry = totals.setdefault(
            name, {"calls": 0, "self_ms": 0.0, "total_ms": 0.0}
        )
        entry["calls"] += 1
        entry["self_ms"] += (end - start - child_s[span]) * 1000
        if names.get(parent) != name:
            entry["total_ms"] += (end - start) * 1000
        for key, value in (counters or {}).items():
            entry[key] = entry.get(key, 0) + value
    return totals

