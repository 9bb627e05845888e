"""Canonical content fingerprints for DAGs, specs, and compile requests.

The plan cache is **content-addressed**: a compiled plan is stored under a
stable hash of everything that determines it:

* :func:`compile_fingerprint` — the full key for a compiled plan: the
  canonical DAG (structure, ratios, output fractions, labels, metadata)
  plus :class:`~repro.core.limits.HardwareLimits`, the
  :class:`~repro.machine.spec.MachineSpec`, and the pipeline options
  (volume-manager knobs, auxiliary fluids).  Any delta in any of these
  produces a different fingerprint — a cache miss — while DAGs that are
  identical in content but were *built in a different node order* collide
  deliberately (the canonical form sorts nodes and edges).
* :func:`source_fingerprint` — the request digest: raw source text plus
  spec and options, the batch driver's and the service's frontend bypass.

Fingerprints are hex SHA-256 digests over the canonical JSON text and
embed :data:`~repro.core.serde.SERDE_VERSION`, so a serde format bump
invalidates every previously stored entry instead of mis-decoding it.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from typing import Any
from collections.abc import Mapping

from .dag import AssayDAG
from .limits import HardwareLimits, as_fraction
from .serde import (
    SERDE_VERSION,
    _node_to_dict,
    dumps_canonical,
    fraction_to_str,
    limits_to_dict,
)

__all__ = [
    "canonical_dag_form",
    "fingerprint_dag",
    "spec_form",
    "options_form",
    "compile_fingerprint",
    "source_fingerprint",
    "plan_key",
    "source_key",
]


def _digest(payload: Any) -> str:
    text = dumps_canonical(payload)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _fingerprint_meta(meta: Mapping[str, object]) -> Any:
    """Meta for hashing only: lossless where possible, ``repr`` fallback.

    Unlike serde (which must round-trip), hashing only needs *stability*,
    so opaque objects (guard AST nodes, ...) hash by their repr.
    """
    from .serde import SerdeError, encode_value

    try:
        return encode_value(dict(meta))
    except SerdeError:
        out: dict[str, Any] = {}
        for key, value in meta.items():
            try:
                out[str(key)] = encode_value(value)
            except SerdeError:
                out[str(key)] = {"$repr": repr(value)}
        return out


def canonical_dag_form(dag: AssayDAG) -> dict[str, Any]:
    """Order-independent content form: nodes sorted by id, edges by key.

    The DAG's *name* is excluded — ``enzyme.p0`` and a structurally equal
    standalone DAG must collide.  Everything else that can influence the
    compiled plan or listing (labels, metadata, capacities) is included.
    """
    nodes = []
    for node in sorted(dag.nodes(), key=lambda n: n.id):
        form = _node_to_dict(node)
        form["meta"] = _fingerprint_meta(node.meta)
        nodes.append(form)
    edges = [
        {
            "src": edge.src,
            "dst": edge.dst,
            "fraction": fraction_to_str(edge.fraction),
            "is_excess": edge.is_excess,
        }
        for edge in sorted(dag.edges(), key=lambda e: e.key)
    ]
    return {"nodes": nodes, "edges": edges}


def fingerprint_dag(dag: AssayDAG) -> str:
    """Content hash of a DAG alone (no limits/spec/options)."""
    return _digest({"v": SERDE_VERSION, "dag": canonical_dag_form(dag)})


def spec_form(spec) -> dict[str, Any]:
    """Canonical form of a :class:`~repro.machine.spec.MachineSpec`."""
    return {
        "name": spec.name,
        "limits": limits_to_dict(spec.limits),
        "n_reservoirs": spec.n_reservoirs,
        "n_input_ports": spec.n_input_ports,
        "n_output_ports": spec.n_output_ports,
        "functional_units": [
            {
                "name": unit.name,
                "kind": unit.kind,
                "capacity": (
                    fraction_to_str(unit.capacity)
                    if unit.capacity is not None
                    else None
                ),
                "min_volume": (
                    fraction_to_str(unit.min_volume)
                    if unit.min_volume is not None
                    else None
                ),
                "modes": list(unit.modes),
                "senses": list(unit.senses),
            }
            for unit in spec.functional_units
        ],
        "extinction_coefficients": {
            species: fraction_to_str(as_fraction(value))
            for species, value in sorted(spec.extinction_coefficients.items())
        },
        "transfer_seconds": fraction_to_str(spec.transfer_seconds),
        "sense_seconds": fraction_to_str(spec.sense_seconds),
    }


def options_form(options: Mapping[str, object] | None) -> dict[str, Any]:
    """Canonical form of an options mapping (bools, numbers, strings)."""
    out: dict[str, Any] = {}
    for key, value in (options or {}).items():
        if isinstance(value, Fraction):
            out[str(key)] = fraction_to_str(value)
        elif isinstance(value, float):
            out[str(key)] = repr(value)
        elif isinstance(value, (list, tuple)):
            out[str(key)] = [str(item) for item in value]
        elif value is None or isinstance(value, (str, int, bool)):
            out[str(key)] = value
        else:
            out[str(key)] = repr(value)
    return out


def compile_fingerprint(
    dag: AssayDAG,
    limits: HardwareLimits,
    spec=None,
    options: Mapping[str, object] | None = None,
) -> str:
    """The full content address of one compile request."""
    return _digest(
        {
            "v": SERDE_VERSION,
            "dag": canonical_dag_form(dag),
            "limits": limits_to_dict(limits),
            "spec": spec_form(spec) if spec is not None else None,
            "options": options_form(options),
        }
    )


def source_fingerprint(
    source: str,
    spec=None,
    options: Mapping[str, object] | None = None,
) -> str:
    """Content address of raw assay *source text* plus spec and options.

    This is the batch driver's frontend-skipping fast key: a warm hit on
    the source fingerprint resolves straight to the compiled plan without
    parsing, unrolling, or DAG building.
    """
    return _digest(
        {
            "v": SERDE_VERSION,
            "source": source,
            "spec": spec_form(spec) if spec is not None else None,
            "options": options_form(options),
        }
    )


# ---------------------------------------------------------------------------
# namespaced cache keys
# ---------------------------------------------------------------------------
def plan_key(fingerprint: str) -> str:
    """Cache key for a full compiled plan entry."""
    return f"plan-{fingerprint}"


def source_key(fingerprint: str) -> str:
    """Cache key for a source-text -> compile-fingerprint mapping."""
    return f"src-{fingerprint}"
