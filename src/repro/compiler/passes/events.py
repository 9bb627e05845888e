"""Structured pass events: what the compiler did, stage by stage.

Every pass the :class:`~repro.compiler.passes.manager.PassManager` runs
emits one :class:`PassEvent` — name, round (for hierarchy stages), wall
and CPU time, input/output content fingerprints, cache interaction, and
how many diagnostics the pass added — to a pluggable :class:`PassEventBus`.

The bus mirrors the run-time trace machinery
(:class:`repro.machine.trace.ExecutionTrace`): a flat, append-only record
of structured events that round-trips through ``to_dict`` and renders as
a human table.  Consumers read the record after the compile: the CLI
renders it, the compile service folds each job's ``events_payload``
into its per-pass metrics.

``repro compile --time-passes`` prints :func:`render_timing_table`;
``--stats-json`` writes :func:`events_payload`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = [
    "PASS_EVENT_SCHEMA_VERSION",
    "PassEvent",
    "PassEventBus",
    "NULL_BUS",
    "events_payload",
    "plan_payload",
    "profile_payload",
    "render_profile_table",
    "render_timing_table",
]

#: bumped only on breaking changes to the event payload shape.
PASS_EVENT_SCHEMA_VERSION = 1

#: event statuses: the pass ran ("ok"/"failed"), was configured out or had
#: nothing to do ("skipped"), or was satisfied wholesale by a cache entry
#: ("cached").
STATUSES = ("ok", "failed", "skipped", "cached")


@dataclass(frozen=True)
class PassEvent:
    """One pass execution (or deliberate non-execution)."""

    name: str
    status: str                       # see STATUSES
    #: hierarchy round for the Figure 6 loop stages, None elsewhere.
    round: int | None = None
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: content fingerprint of the pass's main input / output artifact
    #: (computed only when the bus asks for fingerprints — they cost a
    #: canonical serialization each).
    fingerprint_in: str | None = None
    fingerprint_out: str | None = None
    #: "hit" / "miss" / "store" when the pass talked to the plan cache.
    cache: str | None = None
    #: diagnostics the pass added to the sink while running.
    diagnostics: int = 0
    detail: str = ""
    #: top cProfile hotspots when the compile ran with profiling: a tuple
    #: of ``{"func", "calls", "tottime_ms", "cumtime_ms"}`` dicts ordered
    #: by cumulative time (empty without ``--profile``).
    profile: tuple = ()

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "name": self.name,
            "status": self.status,
            "wall_ms": round(self.wall_s * 1000, 4),
            "cpu_ms": round(self.cpu_s * 1000, 4),
            "diagnostics": self.diagnostics,
        }
        if self.round is not None:
            payload["round"] = self.round
        if self.fingerprint_in is not None:
            payload["fingerprint_in"] = self.fingerprint_in
        if self.fingerprint_out is not None:
            payload["fingerprint_out"] = self.fingerprint_out
        if self.cache is not None:
            payload["cache"] = self.cache
        if self.detail:
            payload["detail"] = self.detail
        if self.profile:
            payload["profile"] = [dict(entry) for entry in self.profile]
        return payload

    def __str__(self) -> str:
        where = f"[{self.round}] " if self.round is not None else ""
        extra = f" ({self.cache})" if self.cache else ""
        return (
            f"{where}{self.name}: {self.status} "
            f"{self.wall_s * 1000:.2f} ms{extra}"
        )


class PassEventBus:
    """Append-only record of the events one compile emits.

    Args:
        fingerprints: ask passes to compute input/output content
            fingerprints for their events.  Off by default — fingerprints
            cost a canonical serialization per pass, which plain compiles
            should not pay.
    """

    def __init__(self, *, fingerprints: bool = False) -> None:
        self.events: list[PassEvent] = []
        self.fingerprints = fingerprints

    def emit(self, event: PassEvent) -> PassEvent:
        self.events.append(event)
        return event

    # ------------------------------------------------------------------
    def ran(self) -> list[PassEvent]:
        """Events for passes that actually executed."""
        return [e for e in self.events if e.status in ("ok", "failed")]

    def total_wall_s(self) -> float:
        return sum(e.wall_s for e in self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


class _NullBus(PassEventBus):
    """A bus that drops everything: the zero-overhead default."""

    def emit(self, event: PassEvent) -> PassEvent:  # noqa: D102
        return event


#: shared do-nothing bus for un-instrumented compiles.
NULL_BUS = _NullBus()


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------
def events_payload(bus: PassEventBus, **extra: Any) -> dict[str, Any]:
    """The stable JSON shape of one instrumented compile
    (``repro compile --time-passes --stats-json``)."""
    payload: dict[str, Any] = {
        "version": PASS_EVENT_SCHEMA_VERSION,
        "tool": "compile",
        "passes": [event.to_dict() for event in bus.events],
        "total_wall_ms": round(bus.total_wall_s() * 1000, 4),
    }
    payload.update(extra)
    return payload


def plan_payload(plan) -> dict[str, Any]:
    """The ``--stats-json`` view of a volume plan's attempt history.

    Derived from the :class:`~repro.core.hierarchy.VolumePlan` itself, not
    from pass events, so a warm cache hit (where the hierarchy passes
    never ran) reports the same winning-attempt metadata as the cold
    compile that populated the cache entry.
    """
    return {
        "status": plan.status,
        "attempts": [
            {
                "stage": attempt.stage,
                "round": attempt.round,
                "succeeded": attempt.succeeded,
                "detail": attempt.detail,
                "objective": attempt.objective,
            }
            for attempt in plan.attempts
        ],
        "transforms": [str(report) for report in plan.transforms],
    }


def profile_payload(bus: PassEventBus) -> list[dict[str, Any]]:
    """Per-pass hotspot lists for ``--stats-json``'s ``"profile"`` key."""
    payload = []
    for event in bus.events:
        if not event.profile:
            continue
        entry: dict[str, Any] = {
            "pass": event.name,
            "hotspots": [dict(h) for h in event.profile],
        }
        if event.round is not None:
            entry["round"] = event.round
        payload.append(entry)
    return payload


def render_profile_table(bus: PassEventBus) -> str:
    """The ``--profile`` human report: top hotspots under each pass."""
    lines = ["per-pass cProfile hotspots (cumulative):"]
    any_rows = False
    for event in bus.events:
        if not event.profile:
            continue
        any_rows = True
        name = event.name if event.round is None else (
            f"{event.name} (round {event.round})"
        )
        lines.append(f"  {name}  [{event.wall_s * 1000:.2f} ms]")
        for spot in event.profile:
            lines.append(
                f"    {spot['cumtime_ms']:9.3f} ms cum  "
                f"{spot['tottime_ms']:9.3f} ms self  "
                f"{spot['calls']:>8} calls  {spot['func']}"
            )
    if not any_rows:
        lines.append("  (no profiled passes — did the compile run "
                     "with profiling enabled?)")
    return "\n".join(lines)


def render_timing_table(bus: PassEventBus) -> str:
    """The ``--time-passes`` human table (one row per event)."""
    rows = []
    for event in bus.events:
        name = event.name if event.round is None else (
            f"{event.name} (round {event.round})"
        )
        rows.append(
            (
                name,
                event.status,
                f"{event.wall_s * 1000:.2f}",
                f"{event.cpu_s * 1000:.2f}",
                event.cache or "-",
                str(event.diagnostics),
            )
        )
    headers = ("pass", "status", "wall ms", "cpu ms", "cache", "diags")
    widths = [
        max(len(headers[col]), *(len(r[col]) for r in rows)) if rows
        else len(headers[col])
        for col in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append(
            "  ".join(
                cell.rjust(w) if col in (2, 3) else cell.ljust(w)
                for col, (cell, w) in enumerate(zip(row, widths))
            ).rstrip()
        )
    lines.append(
        f"total: {bus.total_wall_s() * 1000:.2f} ms over "
        f"{len(bus.ran())} executed pass(es)"
    )
    return "\n".join(lines)
