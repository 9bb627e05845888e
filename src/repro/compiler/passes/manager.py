"""The pass manager: typed passes, uniform instrumentation, explain mode.

A :class:`Pass` is one stage of compilation — it reads and mutates the
:class:`~repro.compiler.passes.context.CompileContext` and reports a
:class:`PassOutcome`.  The :class:`PassManager` runs a configured pass
list in order and wraps every run in the same instrumentation: wall and
CPU timing, optional input/output fingerprints, diagnostic-count deltas,
and a structured :class:`~repro.compiler.passes.events.PassEvent` on the
context's bus.  Pass-level caching falls out of the same shape: a pass
whose product is already available (a restored plan) reports
``cached``/``skipped`` and the manager records the prefix that never
ran.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from collections.abc import Sequence

from .context import CompileContext
from .events import PassEvent

__all__ = ["Pass", "PassOutcome", "PassManager", "run_instrumented"]


@dataclass(frozen=True)
class PassOutcome:
    """What one pass reports back to the manager."""

    status: str = "ok"            # "ok" | "failed" | "cached"
    cache: str | None = None   # "hit" | "miss" | "store"
    detail: str = ""


#: the outcome most passes return.
OK = PassOutcome()


class Pass:
    """One compilation stage.

    Subclasses set :attr:`name` and implement :meth:`run`.  Override
    :meth:`skip` for passes that only run under some configurations
    (the manager emits a ``skipped`` event with the reason instead of
    calling :meth:`run`), and :meth:`fingerprint_in` /
    :meth:`fingerprint_out` to describe the artifact the pass transforms
    (only consulted when the bus asks for fingerprints).
    """

    #: stable pass name used in events, ``--explain``, and tests.
    name: str = "pass"

    def skip(self, ctx: CompileContext) -> str | None:
        """Why this pass does not run on ``ctx``; ``None`` when it does."""
        return None

    def run(self, ctx: CompileContext) -> PassOutcome:
        raise NotImplementedError

    def fingerprint_in(self, ctx: CompileContext) -> str | None:
        return None

    def fingerprint_out(self, ctx: CompileContext) -> str | None:
        return None

    def children(self) -> Sequence["Pass"]:
        """Sub-passes of a composite (the hierarchy loop's stages)."""
        return ()

    def describe(self) -> str:
        """One-line summary for ``--explain`` (first docstring line)."""
        doc = (self.__doc__ or "").strip()
        return doc.splitlines()[0] if doc else self.name


#: hotspots reported per profiled pass (cumulative-time order).
PROFILE_TOP_N = 10


def _profile_hotspots(profiler, top_n: int = PROFILE_TOP_N) -> tuple:
    """The top-N cumulative hotspots of one profiled pass run."""
    import os
    import pstats

    stats = pstats.Stats(profiler)
    rows = sorted(
        stats.stats.items(),
        key=lambda item: (-item[1][3], item[0]),
    )
    top = []
    for (filename, lineno, funcname), (__, ncalls, tt, ct, ___) in rows:
        if funcname in ("<built-in method builtins.exec>",):
            continue
        where = funcname
        if filename and filename != "~":
            where = f"{os.path.basename(filename)}:{lineno}:{funcname}"
        top.append(
            {
                "func": where,
                "calls": int(ncalls),
                "tottime_ms": round(tt * 1000, 3),
                "cumtime_ms": round(ct * 1000, 3),
            }
        )
        if len(top) >= top_n:
            break
    return tuple(top)


def run_instrumented(
    pass_: Pass, ctx: CompileContext, *, round: int | None = None
) -> PassEvent:
    """Run one pass under the standard instrumentation contract.

    Times wall and CPU clocks, captures input/output fingerprints when the
    bus asks for them, counts the diagnostics the pass added, and emits
    exactly one :class:`PassEvent` — including when the pass is skipped or
    raises.  Used by :class:`PassManager` for top-level passes and by
    composite passes (the hierarchy loop) for their round-stamped stages.

    With ``ctx.profile`` set, each *leaf* pass runs under its own
    :mod:`cProfile` session and the event carries the top cumulative
    hotspots.  Composite passes (``children()`` non-empty) are never
    profiled directly — their stages are, which avoids nesting profilers.
    """
    bus = ctx.events
    reason = pass_.skip(ctx)
    if reason is not None:
        return bus.emit(
            PassEvent(
                name=pass_.name, status="skipped", round=round, detail=reason
            )
        )
    fp_in = pass_.fingerprint_in(ctx) if bus.fingerprints else None
    profiler = None
    if ctx.profile and not pass_.children():
        import cProfile

        profiler = cProfile.Profile()
    before = len(ctx.diagnostics)
    wall = time.perf_counter()
    cpu = time.process_time()
    try:
        if profiler is not None:
            outcome = profiler.runcall(pass_.run, ctx)
        else:
            outcome = pass_.run(ctx)
    except Exception:
        bus.emit(
            PassEvent(
                name=pass_.name,
                status="failed",
                round=round,
                wall_s=time.perf_counter() - wall,
                cpu_s=time.process_time() - cpu,
                fingerprint_in=fp_in,
                diagnostics=len(ctx.diagnostics) - before,
                profile=(
                    _profile_hotspots(profiler)
                    if profiler is not None
                    else ()
                ),
            )
        )
        raise
    return bus.emit(
        PassEvent(
            name=pass_.name,
            status=outcome.status,
            round=round,
            wall_s=time.perf_counter() - wall,
            cpu_s=time.process_time() - cpu,
            fingerprint_in=fp_in,
            fingerprint_out=(
                pass_.fingerprint_out(ctx) if bus.fingerprints else None
            ),
            cache=outcome.cache,
            diagnostics=len(ctx.diagnostics) - before,
            detail=outcome.detail,
            profile=(
                _profile_hotspots(profiler) if profiler is not None else ()
            ),
        )
    )


class PassManager:
    """Run a pass plan over a context with uniform instrumentation."""

    def __init__(self, passes: Sequence[Pass]) -> None:
        self.passes: list[Pass] = list(passes)

    # ------------------------------------------------------------------
    def run(self, ctx: CompileContext) -> CompileContext:
        for pass_ in self.passes:
            run_instrumented(pass_, ctx)
        return ctx

    # ------------------------------------------------------------------
    def explain(self, ctx: CompileContext | None = None) -> str:
        """The resolved pass plan, one line per pass.

        With a context that has been run, each line also reports what
        actually happened (ran / skipped / cached and the winning
        hierarchy attempt); without one it is the static plan.
        """
        by_name = {}
        if ctx is not None:
            for event in ctx.events:
                by_name.setdefault(event.name, []).append(event)

        def describe(pass_: Pass, indent: str) -> str:
            line = f"{indent}{pass_.name:<12} {pass_.describe()}"
            events = by_name.get(pass_.name)
            if events:
                last = events[-1]
                note = last.status
                if last.cache:
                    note += f", cache {last.cache}"
                if len(events) > 1:
                    note += f", {len(events)} runs"
                line += f"  [{note}]"
            return line

        lines = ["pass plan:"]
        for pass_ in self.passes:
            lines.append(describe(pass_, "  "))
            for child in pass_.children():
                lines.append(describe(child, "    . "))
        if ctx is not None and ctx.plan is not None:
            winner = next(
                (a for a in reversed(ctx.plan.attempts) if a.succeeded), None
            )
            if winner is not None:
                lines.append(
                    f"hierarchy: {ctx.plan.status!r} won at round "
                    f"{winner.round} ({winner.stage})"
                )
            else:
                lines.append(
                    f"hierarchy: no attempt succeeded; status "
                    f"{ctx.plan.status!r}"
                )
            if ctx.plan_restored:
                lines.append(
                    "plan served from the content-addressed cache "
                    "(hierarchy prefix skipped)"
                )
        elif ctx is not None and ctx.planner is not None:
            lines.append(
                f"hierarchy: deferred to runtime planner "
                f"({ctx.planner.n_partitions} partitions)"
            )
        return "\n".join(lines)
