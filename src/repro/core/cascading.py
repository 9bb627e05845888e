"""Cascaded mixing for extreme mix ratios (paper Section 3.4.1, Figure 7).

A mix ratio ``1:R`` whose minor share is below the hardware's dynamic range
(least count / maximum capacity) cannot be dispensed directly: setting the
major side to capacity underflows the minor side, and setting the minor side
to the least count overflows the major side.  The classic wet-lab remedy is
**cascaded mixing**: realise the ratio as a chain of milder mixes, e.g.
``1:99 = (1:9) ∘ (1:9)``, discarding the statically-known surplus at each
intermediate stage (9/10 parts in the example).

The surplus is what makes cascading compatible with DAGSolve: flow
conservation would otherwise force each stage's production down to the next
stage's draw, re-creating the underflow one level up.  We therefore attach
an :class:`~repro.core.dag.NodeKind.EXCESS` node to every intermediate with
``excess_fraction = 1 - 1/s`` where ``s`` is the next stage's dilution
factor; DAGSolve then assigns every intermediate the same Vnorm as the
original extreme node, exactly as the paper describes for the enzyme assay
(all cascade intermediates get Vnorm 16/3).

Depth selection follows the paper's iterative deepening: try two stages of
``1:(sqrt(R+1) - 1)``, then three of ``1:(cbrt(R+1) - 1)``, ... until every
stage factor fits within the dynamic range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import ceil

from .dag import AssayDAG, Edge, Node, NodeKind
from .errors import DagError, RatioError, ResourceExhaustedError
from .limits import HardwareLimits

__all__ = [
    "CascadeReport",
    "is_extreme_mix",
    "find_extreme_mixes",
    "stage_factors",
    "waste_stage_factors",
    "cascade_mix",
    "cascade_extreme_mixes",
]


@dataclass(frozen=True)
class CascadeReport:
    """Provenance of one cascading rewrite.

    ``shared_ids`` names pre-existing cascade stages this rewrite reused
    instead of creating (waste objective only): the reused stage's excess
    share shrinks by the new consumer's draw.
    """

    node: str
    depth: int
    factors: tuple[Fraction, ...]
    intermediate_ids: tuple[str, ...]
    shared_ids: tuple[str, ...] = ()

    def __str__(self) -> str:
        chain = " -> ".join(f"1:{factor - 1}" for factor in self.factors)
        suffix = ""
        if self.shared_ids:
            suffix = f" ({len(self.shared_ids)} stage(s) shared)"
        return f"cascade {self.node}: {chain}{suffix}"


def _minor_edge(dag: AssayDAG, node_id: str) -> Edge:
    inbound = [e for e in dag.in_edges(node_id) if not e.is_excess]
    if len(inbound) < 2:
        raise RatioError(f"node {node_id!r} is not a multi-input mix")
    return min(inbound, key=lambda e: e.fraction)


def is_extreme_mix(
    dag: AssayDAG,
    node_id: str,
    limits: HardwareLimits,
    *,
    slack: Fraction = Fraction(1),
) -> bool:
    """True when the node's minor input share is at or below the dynamic
    range limit (optionally relaxed by ``slack`` > 1).

    With the paper's 100 nl / 100 pl hardware the dynamic range is 1000, so
    a 1:999 mix (minor share 1/1000) is extreme while 1:99 (1/100) is not.
    """
    return _is_extreme(dag, node_id, _minor_share_limit(limits), slack)


def _minor_share_limit(limits: HardwareLimits) -> Fraction:
    """The largest extreme minor share: ``1 / dynamic range``."""
    return limits.least_count / limits.max_capacity


def _is_extreme(
    dag: AssayDAG, node_id: str, share_limit: Fraction, slack: Fraction
) -> bool:
    # a structurally valid DAG routes excess edges only into EXCESS
    # nodes, so a mix's record lists exactly its non-excess inbound shares
    record = dag.record(node_id)
    shares = record.in_fractions
    if record.kind is not NodeKind.MIX or len(shares) < 2:
        return False
    return min(shares) * slack <= share_limit


def find_extreme_mixes(
    dag: AssayDAG,
    limits: HardwareLimits,
    *,
    slack: Fraction = Fraction(1),
) -> list[str]:
    """All mix nodes with an extreme minor share, in topological order."""
    share_limit = _minor_share_limit(limits)
    return [
        node_id
        for node_id in dag.topological_order()
        if _is_extreme(dag, node_id, share_limit, slack)
    ]


def stage_factors(total_factor: Fraction, depth: int) -> list[Fraction]:
    """Split an overall dilution factor into ``depth`` per-stage factors.

    The product of the returned factors equals ``total_factor`` exactly.
    The first ``depth - 1`` stages use the integer ceiling of the real
    ``depth``-th root (so ``1000 -> [10, 10, 10]`` and ``400 -> [20, 20]``,
    matching the paper's examples); the final stage absorbs the exact
    rational remainder.

    A small ``total_factor`` cannot support an arbitrarily deep cascade
    (every non-final stage factor is an integer >= 2), so the requested
    depth is clamped to ``ceil(log2(total_factor))`` — asking for three
    stages of a 1:3 mix yields the two-stage split.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if total_factor <= 1:
        raise RatioError(f"dilution factor must exceed 1, got {total_factor}")
    max_depth = max(
        1, ceil(math.log2(float(total_factor)) - 1e-12)
    )
    depth = min(depth, max_depth)
    factors: list[Fraction] = []
    remaining = Fraction(total_factor)
    for stage in range(depth - 1):
        stages_left = depth - stage
        root = float(remaining) ** (1.0 / stages_left)
        factor = Fraction(max(2, ceil(round(root, 9))))
        # Never leave the remainder at or below 1 (a 1:0 mix is meaningless).
        while factor > 2 and remaining / factor <= 1:
            factor -= 1
        factors.append(factor)
        remaining /= factor
    if remaining <= 1:
        raise RatioError(
            f"cannot split factor {total_factor} into {depth} stages"
        )
    factors.append(remaining)
    return factors


def waste_stage_factors(
    total_factor: Fraction,
    limits: HardwareLimits,
    *,
    max_depth: int = 8,
) -> list[Fraction]:
    """Front-loaded stage split minimising cascade discard (waste objective).

    The discard of a cascade is ``sum(1 - 1/f)`` over every stage factor
    *after the first* (stage ``i``'s excess share is fixed by stage
    ``i+1``'s draw, so the first factor is free).  Pushing as much dilution
    as possible into the front therefore shrinks the tail factors and the
    discard with them: a 1:999 mix splits as ``[500, 2]`` (half a stage
    volume discarded) where the default equal split ``[32, 125/4]``
    discards ~97% of one.  Every factor stays strictly inside the dynamic
    range so no stage is itself extreme; the product is exact.
    """
    total = Fraction(total_factor)
    if total <= 1:
        raise RatioError(f"dilution factor must exceed 1, got {total}")
    span = limits.dynamic_range
    # the largest integer factor whose minor share still clears the range
    cap = int(span) - 1 if Fraction(span).denominator == 1 else int(span)
    if cap < 2:
        raise ResourceExhaustedError(
            f"dynamic range {span} leaves no room for cascading"
        )
    factors: list[Fraction] = []
    remaining = total
    while remaining > cap:
        if len(factors) >= max_depth - 1:
            raise ResourceExhaustedError(
                f"no cascade of depth <= {max_depth} brings dilution factor "
                f"{total} within dynamic range {span}"
            )
        # keep the remainder >= 2 so the tail never degenerates to 1:0
        factors.append(Fraction(max(2, min(cap, int(remaining / 2)))))
        remaining /= factors[-1]
    if not factors:
        # not actually extreme for this hardware; fall back to the
        # paper-faithful two-way split
        return stage_factors(total, 2)
    if remaining - 1 <= 1 / (span - 1):
        # a final factor this close to 1 would make the *diluent* side the
        # extreme one; no front-loaded split exists
        raise ResourceExhaustedError(
            f"front-loaded cascade of dilution factor {total} leaves an "
            f"extreme final stage (1:{remaining - 1})"
        )
    factors.append(remaining)
    return factors


def _pick_depth(
    total_factor: Fraction, limits: HardwareLimits, max_depth: int
) -> tuple[int, list[Fraction]]:
    """Iterative deepening: smallest depth whose stages all fit the range."""
    for depth in range(2, max_depth + 1):
        factors = stage_factors(total_factor, depth)
        if all(factor <= limits.dynamic_range for factor in factors):
            return depth, factors
    raise ResourceExhaustedError(
        f"no cascade of depth <= {max_depth} brings dilution factor "
        f"{total_factor} within dynamic range {limits.dynamic_range}"
    )


def cascade_mix(
    dag: AssayDAG,
    node_id: str,
    factors: list[Fraction],
    *,
    share_registry: dict[tuple, str] | None = None,
) -> tuple[AssayDAG, CascadeReport]:
    """Rewrite a two-input mix into a cascade with the given stage factors.

    The original node keeps its id (so downstream consumers are untouched)
    and becomes the *final* stage; fresh intermediate nodes named
    ``<id>.cascade1 ...`` are inserted upstream, each with an excess node
    capturing its statically-known discard.

    ``share_registry`` (waste objective) maps ``(concentrate, diluent,
    factor)`` to an existing stage id producing exactly that dilution.  On a
    hit the stage is reused instead of duplicated: the reuse draws from the
    stage's would-be discard, so its excess share shrinks by the new
    consumer's draw (and the excess node disappears once fully consumed).
    Created stages are entered into the registry for later rewrites.

    Ownership: ``dag`` is never mutated.  The rewrite is applied to one
    copy, which is returned together with a provenance report.
    """
    new_dag = dag.copy()
    report = _cascade_in_place(
        new_dag, node_id, factors, share_registry=share_registry
    )
    return new_dag, report


def _cascade_in_place(
    dag: AssayDAG,
    node_id: str,
    factors: list[Fraction],
    *,
    share_registry: dict[tuple, str] | None,
) -> CascadeReport:
    """The cascading rewrite itself, applied to ``dag`` in place.

    Only ever called on a DAG the caller owns (a private working copy):
    on an error the DAG may be left half rewritten.  A shared stage's
    ``excess_fraction`` changes through ``AssayDAG.set_excess_fraction``,
    which marks the stage stale; the ``ratio`` edit is read by no node
    record or derived cache.
    """
    node = dag.node(node_id)
    if node.no_excess:
        raise DagError(
            f"node {node_id!r} is flagged no-excess; cascading would discard "
            "fluid, which the programmer disallowed"
        )
    inbound = [e for e in dag.in_edges(node_id) if not e.is_excess]
    if len(inbound) != 2:
        raise RatioError(
            f"cascading supports two-input mixes; node {node_id!r} has "
            f"{len(inbound)} inputs"
        )
    if len(factors) < 2:
        raise ValueError("a cascade needs at least two stages")
    minor = min(inbound, key=lambda e: e.fraction)
    major = max(inbound, key=lambda e: e.fraction)
    if minor.fraction == major.fraction:
        raise RatioError(f"node {node_id!r} is a 1:1 mix; nothing to cascade")
    total_factor = 1 / minor.fraction
    product = Fraction(1)
    for factor in factors:
        product *= factor
    if product != total_factor:
        raise RatioError(
            f"stage factors {factors} multiply to {product}, expected "
            f"{total_factor} for node {node_id!r}"
        )

    dag.remove_edge(minor.src, node_id)
    dag.remove_edge(major.src, node_id)

    intermediates: list[str] = []
    shared: list[str] = []
    concentrate = minor.src
    for stage, factor in enumerate(factors):
        is_last = stage == len(factors) - 1
        stage_id = node_id if is_last else f"{node_id}.cascade{stage + 1}"
        if not is_last and share_registry is not None:
            next_factor = factors[stage + 1]
            key = (concentrate, major.src, factor)
            existing = share_registry.get(key)
            if existing is not None and existing in dag:
                stage_node = dag.node(existing)
                draw = stage_node.meta.get("cascade_draw", Fraction(0))
                draw += 1 / next_factor
                stage_node.meta["cascade_draw"] = draw
                stage_node.meta["cascade_consumers"] = (
                    stage_node.meta.get("cascade_consumers", 1) + 1
                )
                dag.set_excess_fraction(existing, max(Fraction(0), 1 - draw))
                if stage_node.excess_fraction == 0:
                    for out in list(dag.out_edges(existing)):
                        if out.is_excess:
                            dag.remove_node(out.dst)
                shared.append(existing)
                concentrate = existing
                continue
        if is_last:
            stage_node = dag.node(node_id)
            stage_node.ratio = None  # the declared ratio no longer applies
            stage_node.meta.setdefault("cascade", []).append(
                {"stage": stage + 1, "factor": factor}
            )
        else:
            next_factor = factors[stage + 1]
            inherited = {
                key: node.meta[key]
                for key in ("seq", "duration", "op", "line")
                if key in node.meta
            }
            sharing: dict[str, object] = {}
            if share_registry is not None:
                key = (concentrate, major.src, factor)
                sharing = {
                    "cascade_key": key,
                    "cascade_draw": 1 / next_factor,
                    "cascade_consumers": 1,
                }
                share_registry[key] = stage_id
            stage_node = dag.add_node(
                Node(
                    stage_id,
                    NodeKind.MIX,
                    label=f"{node.display_name} cascade {stage + 1}",
                    excess_fraction=1 - 1 / next_factor,
                    meta={
                        **inherited,
                        "cascade_of": node_id,
                        "stage": stage + 1 - len(factors),
                        **sharing,
                    },
                )
            )
            intermediates.append(stage_id)
        dag.add_edge(Edge(concentrate, stage_id, 1 / factor))
        dag.add_edge(Edge(major.src, stage_id, 1 - 1 / factor))
        if not is_last:
            excess_id = f"{stage_id}.excess"
            dag.add_node(
                Node(
                    excess_id,
                    NodeKind.EXCESS,
                    label=f"discard from {stage_id}",
                    meta={"cascade_of": node_id},
                )
            )
            dag.add_edge(Edge(stage_id, excess_id, is_excess=True))
        concentrate = stage_id
    report = CascadeReport(
        node=node_id,
        depth=len(factors),
        factors=tuple(factors),
        intermediate_ids=tuple(intermediates),
        shared_ids=tuple(shared),
    )
    return report


def cascade_extreme_mixes(
    dag: AssayDAG,
    limits: HardwareLimits,
    *,
    slack: Fraction = Fraction(1),
    max_depth: int = 8,
    objective=None,
) -> tuple[AssayDAG, list[CascadeReport]]:
    """Cascade every extreme mix in the DAG (Figure 6's left-to-right arrow).

    With a waste-aware planning ``objective`` the stage split comes from
    :func:`waste_stage_factors` (front-loaded, minimal discard) and stages
    producing identical dilutions are shared between cascades, each consumer
    drinking from the others' would-be discard.  The default objective keeps
    the paper's iterative-deepening equal split untouched.

    Ownership: ``dag`` is never mutated, not even when a rewrite fails
    partway.  The first rewrite copies it once and every rewrite is then
    applied in place on that private copy.

    Returns the rewritten DAG and one report per rewritten node; the DAG is
    returned unchanged (same object) when nothing is extreme.
    """
    waste_aware = objective is not None and getattr(
        objective, "waste_aware_cascades", False
    )
    registry: dict[tuple, str] | None = None
    if waste_aware:
        registry = {}
        for node in dag.nodes():
            key = node.meta.get("cascade_key")
            if key is not None:
                registry[tuple(key)] = node.id
    reports: list[CascadeReport] = []
    current = dag
    for node_id in find_extreme_mixes(dag, limits, slack=slack):
        minor = _minor_edge(current, node_id)
        total_factor = 1 / minor.fraction
        if waste_aware:
            factors = waste_stage_factors(
                total_factor, limits, max_depth=max_depth
            )
        else:
            __, factors = _pick_depth(total_factor, limits, max_depth)
        if current is dag:
            current = dag.copy()
        reports.append(
            _cascade_in_place(
                current, node_id, factors, share_registry=registry
            )
        )
    return current, reports
