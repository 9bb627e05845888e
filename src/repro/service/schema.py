"""Wire schema v1: request validation for the job endpoints.

One submit body shape covers all four job kinds::

    {
      "kind":    "compile" | "lint" | "certify" | "stress",
      "source":  "<assay source or AIS listing text>",
      "name":    "glucose",            # optional; default derives "job"
      "machine": "aquacore",           # optional machine spec name
      "options": {"use_lp": true, "allow_cascading": true,
                  "allow_replication": true,
                  "objective": "default"},             # optional knobs
      "params":  { ... kind-specific, see below ... }  # optional
    }

Kind-specific ``params``:

* ``compile`` — none.
* ``lint`` — ``{"assay": bool}``: treat ``source`` as assay source and
  compile before linting (default: ``source`` is an AIS listing).
* ``certify`` — ``{"assay": bool, "topology": "bus"|"ring"}``.
* ``stress`` — ``{"seeds": int, "fault_rate": float,
  "kinds": ["metering-drift", ...], "budget": "<nl>"}``.

Validation is strict: unknown top-level or ``params`` keys, wrong
types, and unsupported kinds are rejected with a structured
:class:`SchemaError` carrying the HTTP status and a stable error code.
Oversized programs are rejected with 413 / ``oversized-program``.
Machines, topologies, objectives, the ``options`` switches and the stress
ranges come from the tables the CLI uses (:mod:`repro.commands`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..commands import JOBS, STRESS_PARAMS, SWITCHES
from ..core.objectives import OBJECTIVES
from ..machine.spec import MACHINES
from ..machine.topology import TOPOLOGIES

__all__ = [
    "DEFAULT_MAX_SOURCE_BYTES",
    "JOB_KINDS",
    "WIRE_SCHEMA_VERSION",
    "JobRequest",
    "SchemaError",
    "parse_job_request",
]

#: bumped only on breaking changes to request/response payload shapes.
WIRE_SCHEMA_VERSION = 1

JOB_KINDS = ("compile", *JOBS)

#: default cap on the submitted source text (bytes, UTF-8).
DEFAULT_MAX_SOURCE_BYTES = 262_144

_TOP_KEYS = {"kind", "source", "name", "machine", "options", "params"}
_OPTION_KEYS = {switch.key for switch in SWITCHES} | {"objective"}
_PARAM_KEYS = {
    "compile": set(),
    "lint": {"assay"},
    "certify": {"assay", "topology"},
    "stress": {param.key for param in STRESS_PARAMS},
}


class SchemaError(Exception):
    """A request the wire schema rejects; maps onto one HTTP response."""

    def __init__(self, code: str, message: str, *, status: int = 400):
        super().__init__(message)
        self.code = code
        self.status = status

    def payload(self) -> dict[str, Any]:
        return {
            "version": WIRE_SCHEMA_VERSION,
            "error": {"code": self.code, "message": str(self)},
        }


@dataclass
class JobRequest:
    """One validated job submission."""

    kind: str
    source: str
    name: str = "job"
    machine: str = "aquacore"
    options: dict[str, bool | str] = field(default_factory=dict)
    params: dict[str, Any] = field(default_factory=dict)


def _expect(condition: bool, code: str, message: str, status: int = 400):
    if not condition:
        raise SchemaError(code, message, status=status)


def _validate_params(kind: str, params: dict[str, Any]) -> dict[str, Any]:
    allowed = _PARAM_KEYS[kind]
    unknown = set(params) - allowed
    _expect(
        not unknown,
        "bad-request",
        f"unknown params for kind {kind!r}: {sorted(unknown)}",
    )
    if "assay" in params:
        _expect(
            isinstance(params["assay"], bool),
            "bad-request",
            "params.assay must be a boolean",
        )
    if "topology" in params:
        _expect(
            isinstance(params["topology"], str)
            and params["topology"] in TOPOLOGIES,
            "bad-request",
            f"params.topology must be one of {tuple(TOPOLOGIES)}",
        )
    # the stress ranges; fault-kind names and budget volumes are checked
    # when the job runs (``bad-params``)
    for param in STRESS_PARAMS:
        if param.key in params:
            _expect(
                param.accepts(params[param.key]),
                "bad-request",
                f"params.{param.key} must be {param.expects}",
            )
    return dict(params)


def parse_job_request(
    body: Any, *, max_source_bytes: int = DEFAULT_MAX_SOURCE_BYTES
) -> JobRequest:
    """Validate a decoded submit body into a :class:`JobRequest`.

    Raises :class:`SchemaError` with a stable code on any violation.
    """
    _expect(isinstance(body, dict), "bad-request", "body must be a JSON object")
    unknown = set(body) - _TOP_KEYS
    _expect(
        not unknown, "bad-request", f"unknown fields: {sorted(unknown)}"
    )
    kind = body.get("kind")
    _expect(
        isinstance(kind, str), "bad-request", 'missing required field "kind"'
    )
    _expect(
        kind in JOB_KINDS,
        "unsupported-kind",
        f"kind must be one of {JOB_KINDS}, got {kind!r}",
    )
    source = body.get("source")
    _expect(
        isinstance(source, str) and source.strip(),
        "bad-request",
        'missing required field "source" (non-empty text)',
    )
    _expect(
        len(source.encode("utf-8")) <= max_source_bytes,
        "oversized-program",
        f"source exceeds {max_source_bytes} bytes",
        status=413,
    )
    name = body.get("name", "job")
    _expect(
        isinstance(name, str) and 0 < len(name) <= 128,
        "bad-request",
        "name must be a string of at most 128 chars",
    )
    machine = body.get("machine", "aquacore")
    _expect(
        isinstance(machine, str) and machine in MACHINES,
        "bad-request",
        f"machine must be one of {tuple(MACHINES)}, got {machine!r}",
    )
    options = body.get("options", {})
    _expect(
        isinstance(options, dict), "bad-request", "options must be an object"
    )
    unknown = set(options) - _OPTION_KEYS
    _expect(
        not unknown,
        "bad-request",
        f"unknown options: {sorted(unknown)}",
    )
    _expect(
        all(
            isinstance(value, bool)
            for key, value in options.items()
            if key != "objective"
        ),
        "bad-request",
        "options values must be booleans",
    )
    if "objective" in options:
        _expect(
            isinstance(options["objective"], str)
            and options["objective"] in OBJECTIVES,
            "bad-request",
            f"options.objective must be one of {tuple(OBJECTIVES)}, "
            f"got {options['objective']!r}",
        )
    params = body.get("params", {})
    _expect(
        isinstance(params, dict), "bad-request", "params must be an object"
    )
    return JobRequest(
        kind=kind,
        source=source,
        name=name,
        machine=machine,
        options={
            key: (value if key == "objective" else bool(value))
            for key, value in options.items()
        },
        params=_validate_params(kind, params),
    )
