"""SRC-* checks: turning converged fixpoint facts into diagnostics.

Every code mirrors a failure mode the unrolled pipeline can only find
for one concrete set of loop bounds — here each verdict quantifies over
*all* bounds.  The severity policy is uniform:

* **error** — *definite*: every concretisation of the invariant
  violates the rule (the unroller/linter would fail for any bounds that
  reach the statement);
* **note** — *possible*: some concretisation violates it, the abstract
  state cannot exclude it.  Notes keep ``is_clean`` true, so smashing
  imprecision never fails a clean assay;
* **warning** — hygiene findings (dead fluid, dry/wet clash) matching
  the unrolled linter's severity for the same rule.

The code table is catalogued in ``docs/ANALYSIS.md``.
"""

from __future__ import annotations

from ...compiler.diagnostics import Diagnostic, Severity
from ...machine.spec import MachineSpec
from ..report import CodeInfo, catalogue
from ..state import ContentKind
from .cfg import SourceCFG
from .domain import IT_CELL, IntInterval
from .engine import FactLog

__all__ = ["SRC_CODES", "run_checks"]


#: the stable SRC code catalogue (definite-form severities).
SRC_CODES: dict[str, CodeInfo] = catalogue(
    CodeInfo(
        "SRC-READ-BEFORE-FILL",
        Severity.ERROR,
        "a fluid is read on a path where it definitely holds nothing "
        "(before its only definitions, or `it` before any operation)",
    ),
    CodeInfo(
        "SRC-USE-AFTER-CONSUME",
        Severity.ERROR,
        "a separation waste (or otherwise consumed cell) is used "
        "downstream",
    ),
    CodeInfo(
        "SRC-DOUBLE-FILL",
        Severity.ERROR,
        "a single-assignment fluid is definitely defined twice "
        "(e.g. an unsubscripted definition inside a loop that runs "
        "more than once)",
    ),
    CodeInfo(
        "SRC-AUX-NOT-INPUT",
        Severity.ERROR,
        "a separation matrix/pusher names a produced fluid instead "
        "of a primary input",
    ),
    CodeInfo(
        "SRC-DEAD-FLUID",
        Severity.WARNING,
        "a produced fluid never reaches an OUTPUT or SENSE",
    ),
    CodeInfo(
        "SRC-INDEX-RANGE",
        Severity.ERROR,
        "a subscript interval falls (partly) outside the declared "
        "bank extent",
    ),
    CodeInfo(
        "SRC-DRY-UNDEFINED",
        Severity.ERROR,
        "a dry variable is read where it is (possibly) unassigned",
    ),
    CodeInfo(
        "SRC-RUNTIME-VALUE",
        Severity.ERROR,
        "a sensed (run-time) value is used where a static value is "
        "required (ratio, bound, subscript)",
    ),
    CodeInfo(
        "SRC-DIV-ZERO", Severity.ERROR, "a dry division by (possible) zero"
    ),
    CodeInfo(
        "SRC-RATIO-NONPOSITIVE",
        Severity.ERROR,
        "a mix ratio part that is (possibly) zero or negative",
    ),
    CodeInfo(
        "SRC-FRACTION-RANGE",
        Severity.ERROR,
        "a YIELD/KEEP hint outside (0, 1]",
    ),
    CodeInfo("SRC-WHILE-HINT", Severity.ERROR, "a WHILE hint below zero"),
    CodeInfo(
        "SRC-INFEASIBLE-MIX",
        Severity.ERROR,
        "a NOEXCESS mix whose exact ratios cannot fit the mixer "
        "capacity at the least count",
    ),
    CodeInfo(
        "SRC-EXTREME-MIX",
        Severity.NOTE,
        "a mix whose ratio spread may exceed the mixer's dynamic "
        "range (would need cascading)",
    ),
    CodeInfo(
        "SRC-ALIASED-MIX",
        Severity.ERROR,
        "two mix operands that (may) resolve to the same fluid",
    ),
    CodeInfo(
        "SRC-DRY-WET-CLASH",
        Severity.WARNING,
        "a SENSE result stored into a loop counter",
    ),
    CodeInfo(
        "SRC-NO-CONVERGENCE",
        Severity.ERROR,
        "the fixpoint hit its sweep ceiling (engine bug guard); "
        "results are partial",
    ),
)


class _Emitter:
    def __init__(self) -> None:
        #: (line, diagnostic) — kept separate so sorting is numeric.
        self.found: list[tuple[int, Diagnostic]] = []
        self._seen: set[tuple[int, str, str]] = set()

    def emit(
        self,
        severity: Severity,
        code: str,
        line: int,
        message: str,
        *,
        operand: str | None = None,
    ) -> None:
        assert code in SRC_CODES, f"unregistered source code {code}"
        key = (line, code, message)
        if key in self._seen:
            return
        self._seen.add(key)
        self.found.append(
            (
                line,
                Diagnostic(
                    severity,
                    code,
                    message,
                    node=f"line {line}",
                    operand=operand,
                ),
            )
        )

    def definite(self, code: str, line: int, message: str, **kw: str) -> None:
        self.emit(Severity.ERROR, code, line, message, **kw)

    def possible(self, code: str, line: int, message: str, **kw: str) -> None:
        self.emit(Severity.NOTE, code, line, message + " (possible)", **kw)


def _exec_count(cfg: SourceCFG, facts: FactLog, token: int) -> IntInterval:
    """How often a statement executes: the product of the trip-count
    intervals of every enclosing loop (the constant 1 outside loops)."""
    count = IntInterval.const(1)
    for loop in cfg.enclosing_loops.get(token, ()):
        trips = facts.loop_trips.get(loop.head, IntInterval(0, None))
        count = count.mul(trips)
    return count


def run_checks(
    cfg: SourceCFG, facts: FactLog, spec: MachineSpec
) -> list[Diagnostic]:
    """Evaluate every SRC check against the harvested facts."""
    out = _Emitter()
    _check_reads(out, facts)
    _check_defines(out, cfg, facts)
    _check_dead_fluid(out, cfg, facts)
    _check_aux(out, facts)
    _check_indexes(out, facts)
    _check_dry(out, facts)
    _check_ratios(out, facts, spec)
    _check_aliases(out, facts)
    _check_clashes(out, facts)
    if not facts.converged:  # pragma: no cover - MAX_SWEEPS safety net
        out.emit(
            Severity.ERROR,
            "SRC-NO-CONVERGENCE",
            0,
            "fixpoint did not converge within the sweep ceiling; "
            "results are partial",
        )
    out.found.sort(key=lambda pair: (pair[0], pair[1].code, pair[1].message))
    return [diagnostic for _, diagnostic in out.found]


# ---------------------------------------------------------------------------
def _check_reads(out: _Emitter, facts: FactLog) -> None:
    for read in facts.reads:
        kind = read.pre.kind
        if kind is ContentKind.CONSUMED:
            out.definite(
                "SRC-USE-AFTER-CONSUME",
                read.line,
                f"{read.op} uses {read.display!r}, a separation waste "
                "whose contents are consumed on every path",
                operand=read.display,
            )
            continue
        defined_somewhere = bool(facts.def_sites.get(read.cell))
        if kind is ContentKind.EMPTY:
            if read.cell == IT_CELL:
                out.definite(
                    "SRC-READ-BEFORE-FILL",
                    read.line,
                    f"{read.op} uses 'it' before any fluid operation",
                    operand=read.display,
                )
            elif defined_somewhere:
                out.definite(
                    "SRC-READ-BEFORE-FILL",
                    read.line,
                    f"{read.op} reads {read.display!r} before its "
                    "definition (it would become a primary input that the "
                    "later definition re-defines)",
                    operand=read.display,
                )
            # an undefined-everywhere fluid is a primary input: fine
        elif kind is ContentKind.UNKNOWN:
            if read.cell == IT_CELL or defined_somewhere:
                target = (
                    "'it' before any fluid operation"
                    if read.cell == IT_CELL
                    else f"{read.display!r} before its definition"
                )
                out.possible(
                    "SRC-READ-BEFORE-FILL",
                    read.line,
                    f"{read.op} may use {target}",
                    operand=read.display,
                )


def _check_defines(out: _Emitter, cfg: SourceCFG, facts: FactLog) -> None:
    for define in facts.defines:
        if define.cell == IT_CELL:
            continue  # the it register is re-targeted by every operation
        pre = define.pre
        executions = _exec_count(cfg, facts, define.token)
        # a definition inside an IF arm may be taken on only some
        # iterations (the unroller evaluates the condition per unrolled
        # copy), so re-execution is never definite under a branch
        guarded = cfg.under_branch.get(define.token, False)
        repeats_definitely = (
            not guarded and executions.lo is not None and executions.lo >= 2
        )
        repeats_possibly = executions.hi is None or executions.hi >= 2
        others = facts.def_sites.get(define.cell, set()) - {define.token}
        if not define.summarized:
            if repeats_definitely:
                out.definite(
                    "SRC-DOUBLE-FILL",
                    define.line,
                    f"fluid {define.display!r} is re-defined on every "
                    f"iteration (the enclosing loops run it at least "
                    f"{executions.lo} times); fluids are "
                    "single-assignment",
                    operand=define.display,
                )
            elif pre.kind is ContentKind.HOLDS and others & pre.defs:
                out.definite(
                    "SRC-DOUBLE-FILL",
                    define.line,
                    f"fluid {define.display!r} is defined twice; fluids "
                    "are single-assignment",
                    operand=define.display,
                )
            elif (
                repeats_possibly and define.token in pre.defs
            ) or others & pre.defs:
                out.possible(
                    "SRC-DOUBLE-FILL",
                    define.line,
                    f"fluid {define.display!r} may already be defined "
                    "here",
                    operand=define.display,
                )
        else:
            # summarised bank: only a statically-constant subscript that
            # re-executes definitely re-defines the same cell
            if define.singleton_index and repeats_definitely:
                out.definite(
                    "SRC-DOUBLE-FILL",
                    define.line,
                    f"bank cell {define.display!r} is re-defined on "
                    "every iteration of the enclosing loops",
                    operand=define.display,
                )
            elif pre.may_hold_fluid and (
                define.token in pre.defs or others & pre.defs
            ):
                out.possible(
                    "SRC-DOUBLE-FILL",
                    define.line,
                    f"bank {define.display!r} may re-define a cell that "
                    "already holds fluid",
                    operand=define.display,
                )


def _check_dead_fluid(out: _Emitter, cfg: SourceCFG, facts: FactLog) -> None:
    if not facts.has_sink:
        # a program that delivers nothing off-chip parks its result on
        # the machine; reachability is meaningless then (same policy as
        # the unrolled dead-fluid check)
        return
    for define in facts.defines:
        if define.token not in facts.sunk:
            out.emit(
                Severity.WARNING,
                "SRC-DEAD-FLUID",
                define.line,
                f"{define.op} result {define.display!r} never reaches an "
                "OUTPUT or SENSE on any path; the fluid is produced for "
                "nothing",
                operand=define.display,
            )


def _check_aux(out: _Emitter, facts: FactLog) -> None:
    for aux in facts.aux_loads:
        if aux.pre.kind in (ContentKind.HOLDS, ContentKind.CONSUMED):
            out.definite(
                "SRC-AUX-NOT-INPUT",
                aux.line,
                f"matrix/pusher {aux.name!r} must be a primary input "
                "fluid, but it is produced by this program",
                operand=aux.name,
            )
        elif aux.pre.kind is ContentKind.UNKNOWN:
            out.possible(
                "SRC-AUX-NOT-INPUT",
                aux.line,
                f"matrix/pusher {aux.name!r} may name a produced fluid",
                operand=aux.name,
            )


def _check_indexes(out: _Emitter, facts: FactLog) -> None:
    for fact in facts.indexes:
        for position, (iv, dim) in enumerate(zip(fact.indices, fact.dims)):
            if not iv.intersects(1, dim):
                out.definite(
                    "SRC-INDEX-RANGE",
                    fact.line,
                    f"subscript {position + 1} of {fact.base!r} is "
                    f"{iv}, entirely outside 1..{dim}",
                    operand=fact.base,
                )
            elif not iv.within(1, dim):
                out.possible(
                    "SRC-INDEX-RANGE",
                    fact.line,
                    f"subscript {position + 1} of {fact.base!r} spans "
                    f"{iv}, which can leave 1..{dim}",
                    operand=fact.base,
                )


def _check_dry(out: _Emitter, facts: FactLog) -> None:
    for read in facts.dry_reads:
        if read.definite:
            out.definite(
                "SRC-DRY-UNDEFINED",
                read.line,
                f"dry variable {read.name!r} is read before any "
                "assignment",
                operand=read.name,
            )
        else:
            out.possible(
                "SRC-DRY-UNDEFINED",
                read.line,
                f"dry variable {read.name!r} may be unassigned here",
                operand=read.name,
            )
    for use in facts.runtime_uses:
        out.definite(
            "SRC-RUNTIME-VALUE",
            use.line,
            f"{use.name!r} holds a sensed value, which cannot be used "
            "in a static position (ratio, bound, or subscript)",
            operand=use.name,
        )
    for div in facts.divisions:
        if div.definite:
            out.definite("SRC-DIV-ZERO", div.line, "division by zero")
        else:
            out.possible("SRC-DIV-ZERO", div.line, "divisor may be zero")
    for hint in facts.hints:
        if hint.definite:
            out.definite(
                "SRC-WHILE-HINT", hint.line, "WHILE hint must be >= 0"
            )
        else:
            out.possible(
                "SRC-WHILE-HINT", hint.line, "WHILE hint may be negative"
            )
    for fraction in facts.fractions:
        if fraction.definite:
            out.definite(
                "SRC-FRACTION-RANGE",
                fraction.line,
                f"{fraction.which} hint must be a fraction in (0, 1]",
            )
        else:
            out.possible(
                "SRC-FRACTION-RANGE",
                fraction.line,
                f"{fraction.which} hint may leave (0, 1]",
            )


def _check_ratios(out: _Emitter, facts: FactLog, spec: MachineSpec) -> None:
    least = spec.limits.least_count
    capacity = spec.limits.max_capacity
    for ratio in facts.ratios:
        nonpositive_definitely = any(
            part.hi is not None and part.hi <= 0 for part in ratio.parts
        )
        if nonpositive_definitely:
            out.definite(
                "SRC-RATIO-NONPOSITIVE",
                ratio.line,
                "mix ratio parts must be positive",
            )
            continue
        if any(part.lo is None or part.lo <= 0 for part in ratio.parts):
            out.possible(
                "SRC-RATIO-NONPOSITIVE",
                ratio.line,
                "a mix ratio part may be zero or negative",
            )
        if all(part.is_singleton for part in ratio.parts):
            parts = [part.lo for part in ratio.parts]
            assert all(value is not None for value in parts)
            total = sum(parts)  # type: ignore[arg-type]
            smallest = min(parts)  # type: ignore[type-var]
            if smallest is not None and smallest > 0:
                # metering the smallest part at the least count fixes the
                # minimum feasible batch: least * total / smallest
                minimum = least * total / smallest
                if ratio.no_excess and minimum > capacity:
                    out.definite(
                        "SRC-INFEASIBLE-MIX",
                        ratio.line,
                        f"NOEXCESS mix needs at least "
                        f"{float(minimum):g} nl to honour its ratios at "
                        f"the least count, over the capacity of "
                        f"{float(capacity):g} nl",
                    )
        else:
            hi_parts = [part.hi for part in ratio.parts]
            lo_parts = [part.lo for part in ratio.parts]
            if None in hi_parts or any(
                lo is None or lo <= 0 for lo in lo_parts
            ):
                spread_unbounded = True
            else:
                spread_unbounded = False
                worst = max(h for h in hi_parts if h is not None)
                best = min(lo for lo in lo_parts if lo is not None)
                if best > 0 and worst / best > float(
                    capacity / least
                ):
                    spread_unbounded = True
            if spread_unbounded:
                out.emit(
                    Severity.NOTE,
                    "SRC-EXTREME-MIX",
                    ratio.line,
                    "ratio spread is unbounded over the loop iterations; "
                    "extreme dilutions fall back to mix cascading",
                )


def _check_aliases(out: _Emitter, facts: FactLog) -> None:
    for alias in facts.aliases:
        if alias.definite:
            out.definite(
                "SRC-ALIASED-MIX",
                alias.line,
                f"MIX operands must be distinct fluids, but "
                f"{alias.display!r} appears twice",
                operand=alias.display,
            )
        else:
            out.possible(
                "SRC-ALIASED-MIX",
                alias.line,
                f"two MIX operands may resolve to the same cell of "
                f"{alias.display!r}",
                operand=alias.display,
            )


def _check_clashes(out: _Emitter, facts: FactLog) -> None:
    for line, name in facts.clashes:
        out.emit(
            Severity.WARNING,
            "SRC-DRY-WET-CLASH",
            line,
            f"SENSE stores its reading into {name!r}, which is a loop "
            "counter; the sensed value would clobber the iteration",
            operand=name,
        )
