"""Dilution-gradient workload family (the waste objective's home turf).

Concentration gradients are the canonical microfluidic workload where the
paper's maximise-output objective and a minimise-waste objective diverge:
a gradient needs many dilutions of one stock, the steep end of the ladder
forces extreme mix ratios (and therefore cascading, paper Section 3.4.1),
and every cascade stage discards statically-known excess.  The
``--objective waste`` planner front-loads the stage splits and shares
identical stages between neighbouring gradient points, so these
generators are the workload behind ``benchmarks/bench_waste.py`` and
the ``waste`` check of ``tools/corpus.py``.

All generators are deterministic (no seeds, no randomness): the same
arguments always produce the identical DAG, which the corpus harness and
the golden listings rely on for byte-identity checks.
"""

from __future__ import annotations

from fractions import Fraction

from ..core.dag import AssayDAG

__all__ = [
    "linear_gradient",
    "dilution_gradient",
    "target_concentration_tree",
    "gradient_corpus",
]


def linear_gradient(n_points: int, *, name: str | None = None) -> AssayDAG:
    """An ``n``-point linear concentration gradient of one stock.

    Point ``i`` holds concentration ``i / (n + 1)``: a single mix of
    ``i`` parts stock to ``n + 1 - i`` parts diluent.  No ratio is
    extreme, so this family exercises the objective-aware solvers without
    ever entering the cascading transform.
    """
    if n_points < 2:
        raise ValueError("a gradient needs at least two points")
    dag = AssayDAG(name or f"linear_gradient_{n_points}")
    dag.add_input("stock")
    dag.add_input("diluent")
    for i in range(1, n_points + 1):
        dag.add_mix(
            f"point{i}", {"stock": i, "diluent": n_points + 1 - i}
        )
    dag.validate()
    return dag


def dilution_gradient(
    n_points: int,
    max_factor: int = 100_000,
    *,
    replicates: int = 1,
    name: str | None = None,
) -> AssayDAG:
    """A logarithmic dilution gradient reaching down to ``1:max_factor-1``.

    Point ``i`` dilutes the stock by factor ``round(max_factor**(i/n))``
    (duplicate factors collapse), so the steep end of the ladder exceeds
    any realistic dynamic range and forces cascaded mixing.  With
    ``replicates > 1`` every point is brewed in ``r`` identical wells —
    the shape where the waste objective's stage sharing pays off, since
    each replica's cascade wants the exact same intermediate dilutions.
    """
    if n_points < 1:
        raise ValueError("a gradient needs at least one point")
    if max_factor < 2:
        raise ValueError("max_factor must be >= 2")
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    factors: list[int] = []
    for i in range(1, n_points + 1):
        factor = round(max_factor ** (i / n_points))
        if factor >= 2 and factor not in factors:
            factors.append(factor)
    dag = AssayDAG(
        name or f"dilution_gradient_{n_points}x{max_factor}"
    )
    dag.add_input("stock")
    dag.add_input("diluent")
    for index, factor in enumerate(factors, start=1):
        for well in range(1, replicates + 1):
            suffix = f"_w{well}" if replicates > 1 else ""
            dag.add_mix(
                f"point{index}{suffix}",
                {"stock": 1, "diluent": factor - 1},
            )
    dag.validate()
    return dag


def target_concentration_tree(
    target: Fraction | str | float,
    *,
    bits: int = 8,
    name: str | None = None,
) -> AssayDAG:
    """Hit an arbitrary stock concentration with a chain of 1:1 mixes.

    Writes the target as ``0.b1 b2 ... bd`` in binary (``d = bits``) and
    builds the classic bit-sequence mixing chain from the least
    significant bit up: start from pure diluent and repeatedly 1:1-mix
    the running fluid with stock (bit set) or diluent (bit clear).  After
    the chain the running concentration is exactly
    ``round(target * 2**bits) / 2**bits``.

    Every mix is 1:1 so nothing ever cascades; the family stresses deep
    serial reuse of two inputs instead of ratio extremity.
    """
    value = Fraction(target)
    if not 0 < value < 1:
        raise ValueError(f"target concentration must be in (0, 1), got {value}")
    if bits < 1:
        raise ValueError("bits must be >= 1")
    scaled = round(value * 2**bits)
    scaled = min(max(scaled, 1), 2**bits - 1)
    bit_string = format(scaled, f"0{bits}b")
    dag = AssayDAG(name or f"target_{scaled}_of_{2 ** bits}")
    dag.add_input("stock")
    dag.add_input("diluent")
    current = "diluent"
    for step, bit in enumerate(reversed(bit_string), start=1):
        partner = "stock" if bit == "1" else "diluent"
        if partner == current:
            # a 1:1 self-mix is a no-op; fold it into the next stage
            continue
        node_id = f"step{step}"
        dag.add_mix(node_id, {partner: 1, current: 1})
        current = node_id
    dag.validate()
    return dag


def gradient_corpus() -> list[AssayDAG]:
    """The fixed gradient workload set used by benchmarks and CI tools."""
    return [
        linear_gradient(6),
        linear_gradient(12, name="linear_gradient_wide"),
        dilution_gradient(4, 10_000),
        dilution_gradient(6, 100_000, name="dilution_gradient_deep"),
        dilution_gradient(
            3, 50_000, replicates=3, name="dilution_gradient_wells"
        ),
        target_concentration_tree(Fraction(5, 16), bits=4),
        target_concentration_tree(Fraction(173, 256), bits=8),
    ]
