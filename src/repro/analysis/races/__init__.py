"""Static race / interference detection over AIS schedules.

The certifier (:mod:`repro.analysis.certify`) *replays* one concrete
schedule — a dynamic check that proves nothing about other interleavings.
This package is the static counterpart, and the safety oracle a
multi-assay scheduler calls **before** committing to an interleaving:

* :mod:`repro.analysis.races.hb` — happens-before construction (program
  order, fluid dataflow, explicit barriers) and may-happen-in-parallel
  (MHP) queries via barrier epochs;
* :mod:`repro.analysis.races.resources` — lockset-style resource access
  extraction from the shared dataflow facts (reservoirs, storage wells,
  input ports, functional units), with per-program reservoir namespacing
  for re-bankable storage;
* :mod:`repro.analysis.races.detector` — the classification engine:
  safe / definite race (``RACE-WW``, ``RACE-RW``, ``RACE-PORT``,
  ``RACE-ROUTE``) / possible race (``RACE-BANK``, ``RACE-GUARDED``,
  ``RACE-ORDER``), plus route contention via
  :meth:`~repro.machine.topology.ChannelTopology.conflicts`;
* :mod:`repro.analysis.races.codes` — the stable RACE-* catalogue.

Library entry point — the scheduler oracle::

    from repro.analysis.races import analyze_races
    report = analyze_races([compiled_a.program, compiled_b.program], spec)
    if report.counts["error"] == 0:
        ...  # every interleaving the barriers admit is interference-free

A single program answers the *schedule-sensitivity* question instead
(which conflicting pairs rest on emission order alone); those findings
are notes, never errors — the serial schedule itself is sound.  The same
analysis runs behind ``repro lint --races [--json]`` and as an opt-in
compile pass (``repro compile --race-check``).
"""

from __future__ import annotations

from collections.abc import Sequence

from ...ir.parse import parse_ais
from ...ir.program import AISProgram
from ...machine.spec import AQUACORE_SPEC, MachineSpec
from ...machine.topology import ChannelTopology
from ..report import AnalysisReport
from .codes import RACE_CODES
from .detector import RaceDetector
from .hb import Barrier, BarrierOrder, DataflowOrder

__all__ = [
    "RACE_CODES",
    "Barrier",
    "BarrierOrder",
    "DataflowOrder",
    "analyze_races",
    "race_text",
]


def analyze_races(
    programs: AISProgram | Sequence[AISProgram],
    spec: MachineSpec = AQUACORE_SPEC,
    *,
    topology: ChannelTopology | None = None,
    barriers: Sequence[Barrier] = (),
    share_storage: bool = False,
    name: str | None = None,
) -> AnalysisReport:
    """Statically detect races over one program or a merged schedule.

    Args:
        programs: one AIS program, or several independently-compiled
            programs to be run concurrently (the scheduler-oracle form).
        spec: machine description for component classification.
        topology: channel graph for route-contention findings.  Opt-in:
            on the stock bus every transfer pair contends through the
            backbone, so the default answers the re-banking question.
        barriers: synchronization points — each a tuple of per-program
            instruction cut indices; instructions before the cut in one
            program happen before instructions at/after it in every
            other.  An empty sequence means fully concurrent.
        share_storage: treat same-named reservoirs in different programs
            as the same physical cell (the literal merged schedule).
            Default ``False`` namespaces them per program — a scheduler
            re-banks storage — and adds the ``RACE-BANK`` capacity note.
        name: report title; defaults to the joined program names.

    Returns:
        the shared :class:`~repro.analysis.report.AnalysisReport` with
        the MHP statistics under ``extras["mhp"]``;
        ``counts["error"] == 0`` certifies every interleaving the
        barriers admit as interference-free.
    """
    if isinstance(programs, AISProgram):
        programs = [programs]
    programs = list(programs)
    if not programs:
        raise ValueError("analyze_races needs at least one program")
    detector = RaceDetector(
        programs=programs,
        spec=spec,
        topology=topology,
        barriers=barriers,
        share_storage=share_storage,
    ).run()
    mhp = detector.mhp
    return AnalysisReport(
        tool="races",
        program=name or "+".join(program.name for program in programs),
        machine=spec.name,
        findings=detector.findings,
        extras={"mhp": mhp},
        verdict="race-free",
        detail=(
            f"{mhp['mhp_pairs']} MHP pair(s) over "
            f"{mhp['programs']} program(s)"
        ),
    )


def race_text(
    text: str,
    spec: MachineSpec = AQUACORE_SPEC,
    *,
    name: str = "program",
    topology: ChannelTopology | None = None,
) -> AnalysisReport:
    """Parse an AIS listing and race-check it (the CLI path).

    Raises:
        AISParseError: when the text is not a well-formed listing.
    """
    return analyze_races(
        parse_ais(text, name=name), spec, topology=topology
    )
