"""What ``repro <cmd>`` and ``repro serve`` must agree on, defined once.

Beside the registries that live next to what they name (``MACHINES``,
``TOPOLOGIES``, ``OBJECTIVES``), both front ends share the hierarchy
switches (:data:`SWITCHES`), the stress parameters and their one
validator (:data:`STRESS_PARAMS`, :func:`stress_params`), and one body
each for the lint, certify and stress jobs (:data:`JOBS`).  A body takes
the source, the machine spec, the volume-manager options and the kind's
``params`` in wire form, returns the report, and raises the underlying
error for the front end to word: ``AISParseError`` for a listing that
does not parse, ``FrontendError``/``VolumeError`` for an assay that does
not compile, :class:`ParamError` for bad stress params.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from fractions import Fraction
from typing import Any, NamedTuple

from .compiler.passes import CompileContext, run_compile
from .core.hierarchy import VolumeManager
from .core.limits import as_fraction
from .ir.parse import parse_ais
from .machine.faults import parse_kinds
from .machine.interpreter import Machine
from .machine.spec import MachineSpec
from .machine.topology import TOPOLOGIES
from .runtime.stress import stress_compiled

__all__ = [
    "JOBS",
    "STRESS_PARAMS",
    "SWITCHES",
    "ParamError",
    "StressParam",
    "Switch",
    "certify_job",
    "compile_source",
    "lint_job",
    "stress_job",
    "stress_params",
]


class Switch(NamedTuple):
    """One hierarchy stage: on by default, off through ``flag``."""

    #: the :class:`~repro.core.hierarchy.VolumeManager` keyword and wire
    #: ``options`` key
    key: str
    flag: str
    help: str

    @property
    def dest(self) -> str:
        """The argparse attribute ``flag`` sets."""
        return self.flag[2:].replace("-", "_")


SWITCHES = (
    Switch("use_lp", "--no-lp", "disable the LP fallback stage"),
    Switch(
        "allow_cascading",
        "--no-cascade",
        "disable cascading of extreme mix ratios",
    ),
    Switch("allow_replication", "--no-replicate", "disable static replication"),
)


class StressParam(NamedTuple):
    """One stress parameter: its CLI flag and its wire ``params`` entry."""

    key: str
    flag: str
    #: the flag's default; None leaves the choice to ``stress_compiled``
    default: Any
    #: converts the flag's text
    type: Callable[[str], Any]
    metavar: str
    help: str
    #: what :attr:`accepts` demands, for messages
    expects: str
    #: the wire value's type and range
    accepts: Callable[[Any], bool]
    #: wire value -> ``stress_compiled`` keyword; raises ValueError
    parse: Callable[[Any], Any] | None = None


class ParamError(ValueError):
    """A stress parameter outside its type or range."""

    def __init__(self, param: StressParam, message: str):
        super().__init__(message)
        self.param = param


def _budget(text: str) -> Fraction:
    try:
        volume = as_fraction(text)
    except (ValueError, ZeroDivisionError):
        volume = None
    if volume is None or volume < 0:
        raise ValueError(f"must be a non-negative volume in nl, got {text!r}")
    return volume


STRESS_PARAMS = (
    StressParam(
        key="seeds",
        flag="--seeds",
        default=10,
        type=int,
        metavar="N",
        help="number of deterministic fault scenarios (seed k for scenario "
        "k; default: 10)",
        expects="an integer in [1, 10000]",
        accepts=lambda value: (
            isinstance(value, int)
            and not isinstance(value, bool)
            and 1 <= value <= 10_000
        ),
    ),
    StressParam(
        key="fault_rate",
        flag="--fault-rate",
        default=0.05,
        type=float,
        metavar="R",
        help="per-(kind, attempt) fault probability (default: 0.05)",
        expects="a number in [0, 1]",
        accepts=lambda value: (
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and 0.0 <= float(value) <= 1.0
        ),
    ),
    StressParam(
        key="kinds",
        flag="--kinds",
        default=None,
        type=str,
        metavar="CSV",
        help="comma-separated fault kinds to enable (default: all; see "
        "docs/ROBUSTNESS.md for the taxonomy)",
        expects="a non-empty list of fault-kind names",
        accepts=lambda value: (
            isinstance(value, list)
            and bool(value)
            and all(isinstance(item, str) for item in value)
        ),
        parse=parse_kinds,
    ),
    StressParam(
        key="budget",
        flag="--budget",
        default=None,
        type=str,
        metavar="NL",
        help="global regeneration budget in extra input volume (nl)",
        expects="a volume string in nl",
        accepts=lambda value: isinstance(value, str) and bool(value),
        parse=_budget,
    ),
)


def stress_params(params: Mapping[str, Any]) -> dict[str, Any]:
    """Check stress ``params`` in wire form; the ``stress_compiled`` keywords.

    A missing or None entry takes the parameter's default.  Raises
    :class:`ParamError` for a value outside its type or range.
    """
    resolved: dict[str, Any] = {}
    for param in STRESS_PARAMS:
        value = params.get(param.key)
        if value is None:
            value = param.default
        if value is None:
            continue
        if not param.accepts(value):
            raise ParamError(param, f"must be {param.expects}, got {value!r}")
        try:
            resolved[param.key] = param.parse(value) if param.parse else value
        except ValueError as error:
            raise ParamError(param, str(error)) from None
    return resolved


def compile_source(
    source: str, spec: MachineSpec, options, **run_options
) -> CompileContext:
    """One compile of assay ``source`` through the pass manager;
    ``run_options`` (analyzers, cache, bus, profile) go to
    :func:`~repro.compiler.passes.run_compile`."""
    manager = VolumeManager(spec.limits, **options)
    return run_compile(source=source, spec=spec, manager=manager, **run_options)


def lint_job(source, spec, options, params, *, name, cache=None):
    """Fluid-safety lint of an AIS listing, or of the compiled assay when
    ``params["assay"]``."""
    from .analysis import lint_program, lint_text

    if params.get("assay"):
        compiled = compile_source(source, spec, options, cache=cache).compiled
        return lint_program(compiled.program, spec)
    return lint_text(source, spec, name=name)


def certify_job(source, spec, options, params, *, name, cache=None):
    """Plan-certificate check of an AIS listing, or of the compiled assay's
    plan and schedule when ``params["assay"]``."""
    from .analysis.certify import certify, certify_program

    topology = TOPOLOGIES[params.get("topology", "bus")](spec)
    if params.get("assay"):
        compiled = compile_source(source, spec, options, cache=cache).compiled
        return certify(compiled, topology=topology)
    program = parse_ais(source, name=name)
    return certify_program(program, spec, topology=topology)


def stress_job(source, spec, options, params, *, name, cache=None):
    """Seeded fault injection over the compiled assay (the report is named
    after the assay, not ``name``)."""
    resolved = stress_params(params)
    compiled = compile_source(source, spec, options, cache=cache).compiled
    return stress_compiled(
        compiled, **resolved, machine_factory=lambda: Machine(spec)
    )


JOBS = {"lint": lint_job, "certify": certify_job, "stress": stress_job}
