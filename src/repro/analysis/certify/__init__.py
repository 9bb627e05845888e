"""Plan-certificate verifier: translation validation for volume plans.

The compiler pipeline (DAGSolve -> cascading -> replication -> rounding
-> codegen) is trusted end to end; this package is the independent
auditor.  It re-derives the IVol constraint system from the assay DAG and
machine spec (:mod:`~repro.analysis.certify.constraints`), checks the
emitted volume assignment against it with exact rational arithmetic
(:mod:`~repro.analysis.certify.plan`), and walks the generated
instruction schedule for hardware interference
(:mod:`~repro.analysis.certify.schedule`).  Findings carry the stable
``PLAN-*`` / ``SCHED-*`` codes catalogued in
:mod:`~repro.analysis.certify.codes` and documented in
``docs/ANALYSIS.md``.

By design this package imports **none** of ``repro.core.dagsolve``,
``repro.core.lp`` or ``repro.core.rounding`` — the modules it audits.
The duplicated constraint construction is the point: a solver bug cannot
agree with an independent re-derivation.  A test
(``tests/analysis/test_certify_corpus.py``) enforces the independence.

Entry points::

    from repro.analysis.certify import certify, certify_program
    report = certify(compiled)           # plan + schedule
    report = certify_program(program, spec)   # bare listing, schedule only

The same analysis runs behind ``repro certify`` and as an opt-in pipeline
stage (``run_compile(..., certify=True)``).
"""

from .codes import ALL_CODES, PLAN_CODES, SCHED_CODES
from .constraints import ReferenceModel, reference_model
from .plan import certify_plan
from .report import certify, certify_program
from .schedule import certify_schedule

__all__ = [
    "ALL_CODES",
    "PLAN_CODES",
    "SCHED_CODES",
    "ReferenceModel",
    "reference_model",
    "certify_plan",
    "certify_schedule",
    "certify",
    "certify_program",
]
