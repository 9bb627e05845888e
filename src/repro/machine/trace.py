"""Execution traces: what the wet datapath did, step by step.

Each executed instruction appends a :class:`TraceEvent` carrying the moved
volumes and any measurement produced.  Benchmarks use traces to count wet
instructions (the costly resource: "fluidic instructions take seconds to
execute"), and tests use them to assert conservation of volume.

Fault injection (:mod:`repro.machine.faults`) and the hardened executor
weave two further record kinds into the same timeline:

* :class:`FaultEvent` — an injected hardware misbehaviour (metering drift,
  dispense shortfall, reservoir depletion, sensor misread, transient
  transport failure);
* :class:`RecoveryEvent` — what the runtime did about it (an instruction
  retry, or a Biostream-style regeneration of a backward slice).

Both carry ``seq`` (the position in the instruction event stream at the
moment they happened) and ``clock`` (the simulated wet-path time), so the
full interleaving is reconstructible.  The whole trace round-trips through
:meth:`ExecutionTrace.to_dict` / :meth:`ExecutionTrace.from_dict` with
exact :class:`~fractions.Fraction` values.

The machine records one event per executed instruction through
:meth:`ExecutionTrace.record_instruction`: the parts every event of an
instruction shares (its :class:`EventHead`) are decoded once per machine,
the clock is added once per event, and the clock and the moved-volume
total run as integers over a common denominator, each turned into a
Fraction once per change.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any, NamedTuple

from ..core.exact import RunningSum

__all__ = [
    "TraceEvent",
    "FaultEvent",
    "RecoveryEvent",
    "EventHead",
    "ExecutionTrace",
]

TRACE_SCHEMA_VERSION = 1


def _frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _unfrac(text: str) -> Fraction:
    numerator, __, denominator = text.partition("/")
    return Fraction(int(numerator), int(denominator or "1"))


def _opt_frac(value: Fraction | None) -> str | None:
    return None if value is None else _frac(value)


def _opt_unfrac(text: str | None) -> Fraction | None:
    return None if text is None else _unfrac(text)


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One executed instruction."""

    index: int              # instruction index in the program (or -1 ad hoc)
    opcode: str
    text: str               # rendered instruction
    volume: Fraction | None = None   # volume moved / produced
    measurement: Fraction | None = None  # sense reading or separation yield
    note: str = ""
    #: simulated wet-path wall time this instruction took (0 for dry ops —
    #: electronic control is "orders of magnitude faster", Section 2.1).
    seconds: Fraction = Fraction(0)
    #: cumulative simulated time at completion of this instruction.
    clock: Fraction = Fraction(0)

    def __str__(self) -> str:
        extra = ""
        if self.volume is not None:
            extra += f"  [{float(self.volume):.4g} nl]"
        if self.measurement is not None:
            extra += f"  => {float(self.measurement):.6g}"
        if self.note:
            extra += f"  ({self.note})"
        return f"{self.index:4d}: {self.text}{extra}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "opcode": self.opcode,
            "text": self.text,
            "volume": _opt_frac(self.volume),
            "measurement": _opt_frac(self.measurement),
            "note": self.note,
            "seconds": _frac(self.seconds),
            "clock": _frac(self.clock),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TraceEvent":
        return cls(
            index=data["index"],
            opcode=data["opcode"],
            text=data["text"],
            volume=_opt_unfrac(data.get("volume")),
            measurement=_opt_unfrac(data.get("measurement")),
            note=data.get("note", ""),
            seconds=_unfrac(data.get("seconds", "0/1")),
            clock=_unfrac(data.get("clock", "0/1")),
        )


class EventHead(NamedTuple):
    """What every trace event of one instruction shares."""

    opcode: str             # the opcode's value, e.g. "move"
    text: str               # the rendered instruction
    seconds: Fraction       # simulated wet-path time of one execution
    wet: bool


@dataclass(frozen=True)
class FaultEvent:
    """One injected hardware fault."""

    index: int              # instruction index the fault hit
    kind: str               # FaultKind value, e.g. "reservoir-depletion"
    location: str = ""      # component / operand it struck
    #: kind-specific size: volume lost (depletion), delta applied (drift /
    #: shortfall, in nl), relative misread delta; None for transport.
    magnitude: Fraction | None = None
    note: str = ""
    seq: int = 0            # len(trace.events) when the fault fired
    clock: Fraction = Fraction(0)

    def __str__(self) -> str:
        extra = f" at {self.location}" if self.location else ""
        if self.magnitude is not None:
            extra += f" [{float(self.magnitude):.4g}]"
        if self.note:
            extra += f" ({self.note})"
        return f"fault@{self.index}: {self.kind}{extra}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "kind": self.kind,
            "location": self.location,
            "magnitude": _opt_frac(self.magnitude),
            "note": self.note,
            "seq": self.seq,
            "clock": _frac(self.clock),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultEvent":
        return cls(
            index=data["index"],
            kind=data["kind"],
            location=data.get("location", ""),
            magnitude=_opt_unfrac(data.get("magnitude")),
            note=data.get("note", ""),
            seq=data.get("seq", 0),
            clock=_unfrac(data.get("clock", "0/1")),
        )


@dataclass(frozen=True)
class RecoveryEvent:
    """One recovery action the runtime took."""

    index: int              # instruction index being recovered
    action: str             # "retry" | "regeneration"
    location: str = ""      # the exhausted / blocked location
    attempts: int = 1       # how many recoveries this location/index has had
    #: extra input volume drawn while re-executing the backward slice
    #: (regeneration only) — the quantity the budget caps.
    extra_volume: Fraction | None = None
    note: str = ""
    seq: int = 0
    clock: Fraction = Fraction(0)

    def __str__(self) -> str:
        extra = f" of {self.location}" if self.location else ""
        if self.extra_volume is not None:
            extra += f" [+{float(self.extra_volume):.4g} nl]"
        return f"recovery@{self.index}: {self.action}{extra} (attempt {self.attempts})"

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "action": self.action,
            "location": self.location,
            "attempts": self.attempts,
            "extra_volume": _opt_frac(self.extra_volume),
            "note": self.note,
            "seq": self.seq,
            "clock": _frac(self.clock),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RecoveryEvent":
        return cls(
            index=data["index"],
            action=data["action"],
            location=data.get("location", ""),
            attempts=data.get("attempts", 1),
            extra_volume=_opt_unfrac(data.get("extra_volume")),
            note=data.get("note", ""),
            seq=data.get("seq", 0),
            clock=_unfrac(data.get("clock", "0/1")),
        )


class ExecutionTrace:
    """Accumulated events plus summary statistics.

    ``total_fluid_moved`` and ``total_seconds`` are exact running sums
    read as Fractions; the counters and event lists are plain attributes.
    """

    def __init__(
        self,
        events: list[TraceEvent] | None = None,
        faults: list[FaultEvent] | None = None,
        recoveries: list[RecoveryEvent] | None = None,
        wet_instruction_count: int = 0,
        dry_instruction_count: int = 0,
        regeneration_count: int = 0,
        total_fluid_moved: Fraction = Fraction(0),
        total_seconds: Fraction = Fraction(0),
    ) -> None:
        self.events = [] if events is None else events
        self.faults = [] if faults is None else faults
        self.recoveries = [] if recoveries is None else recoveries
        self.wet_instruction_count = wet_instruction_count
        self.dry_instruction_count = dry_instruction_count
        self.regeneration_count = regeneration_count
        self._moved = RunningSum(total_fluid_moved)
        #: accumulated simulated fluid-path time.
        self._clock = RunningSum(total_seconds)

    @property
    def total_fluid_moved(self) -> Fraction:
        return self._moved.value

    @property
    def total_seconds(self) -> Fraction:
        return self._clock.value

    def record(self, event: TraceEvent, *, wet: bool) -> None:
        """Keep a copy of ``event`` stamped with the clock at its
        completion (whatever clock ``event`` carries)."""
        self.record_instruction(
            event.index,
            EventHead(event.opcode, event.text, event.seconds, wet),
            event.volume,
            event.measurement,
            event.note,
        )

    def record_instruction(
        self,
        index: int,
        head: EventHead,
        volume: Fraction | None = None,
        measurement: Fraction | None = None,
        note: str = "",
    ) -> None:
        """Keep the event of one executed instruction, built with its
        final clock (the clock is added once)."""
        clock = self._clock
        clock.add(head.seconds)
        event = TraceEvent(
            index,
            head.opcode,
            head.text,
            volume,
            measurement,
            note,
            head.seconds,
            clock.value,
        )
        self.events.append(event)
        if head.wet:
            self.wet_instruction_count += 1
            if volume is not None:
                self._moved.add(volume)
        else:
            self.dry_instruction_count += 1

    def record_fault(self, event: FaultEvent) -> FaultEvent:
        """Stamp a fault with the current timeline position and keep it."""
        stamped = replace(
            event, seq=len(self.events), clock=self.total_seconds
        )
        self.faults.append(stamped)
        return stamped

    def record_recovery(self, event: RecoveryEvent) -> RecoveryEvent:
        """Stamp a recovery with the current timeline position and keep it."""
        stamped = replace(
            event, seq=len(self.events), clock=self.total_seconds
        )
        self.recoveries.append(stamped)
        return stamped

    def measurements(self) -> dict[int, Fraction]:
        return {
            e.index: e.measurement
            for e in self.events
            if e.measurement is not None
        }

    def render(self, limit: int | None = None) -> str:
        events = self.events if limit is None else self.events[:limit]
        lines = [str(e) for e in events]
        if limit is not None and len(self.events) > limit:
            lines.append(f"... ({len(self.events) - limit} more)")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        """Exact, JSON-able snapshot of the whole trace."""
        return {
            "version": TRACE_SCHEMA_VERSION,
            "events": [e.to_dict() for e in self.events],
            "faults": [e.to_dict() for e in self.faults],
            "recoveries": [e.to_dict() for e in self.recoveries],
            "wet_instruction_count": self.wet_instruction_count,
            "dry_instruction_count": self.dry_instruction_count,
            "regeneration_count": self.regeneration_count,
            "total_fluid_moved": _frac(self.total_fluid_moved),
            "total_seconds": _frac(self.total_seconds),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ExecutionTrace":
        return cls(
            events=[TraceEvent.from_dict(e) for e in data.get("events", ())],
            faults=[FaultEvent.from_dict(e) for e in data.get("faults", ())],
            recoveries=[
                RecoveryEvent.from_dict(e)
                for e in data.get("recoveries", ())
            ],
            wet_instruction_count=data.get("wet_instruction_count", 0),
            dry_instruction_count=data.get("dry_instruction_count", 0),
            regeneration_count=data.get("regeneration_count", 0),
            total_fluid_moved=_unfrac(data.get("total_fluid_moved", "0/1")),
            total_seconds=_unfrac(data.get("total_seconds", "0/1")),
        )

    def __len__(self) -> int:
        return len(self.events)

    def _fields(self) -> tuple[object, ...]:
        return (
            self.events,
            self.faults,
            self.recoveries,
            self.wet_instruction_count,
            self.dry_instruction_count,
            self.regeneration_count,
            self.total_fluid_moved,
            self.total_seconds,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExecutionTrace):
            return NotImplemented
        return self._fields() == other._fields()
