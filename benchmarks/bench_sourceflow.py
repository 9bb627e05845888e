"""Source-level verification is O(1) in the loop trip count.

The unrolled pipeline pays for every iteration twice — unrolling the
loop into N statements, then linting all N of them — so its wall time
grows at least linearly in the bound.  The sourceflow verifier runs one
fixpoint over the rolled CFG: same number of abstract sweeps whether the
loop says ``FOR i FROM 1 TO 10`` or ``TO 10000``.

Sweeps the dilution-series template over N in {10, 10^2, 10^3, 10^4},
timing ``verify_source`` (rolled) against ``run_compile`` +
``lint_program`` (unrolled).  Results land in
``benchmarks/BENCH_sourceflow.json``.  Hard assertions: the sweep count
is identical for every N, the rolled verdict stays clean, and at the
largest bound the unrolled path costs at least an order of magnitude
more wall time.
"""

import json
import pathlib
import time

import _report

from repro.analysis import lint_program, verify_source
from repro.compiler.passes import run_compile
from repro.machine.spec import AQUACORE_SPEC

OUT_PATH = pathlib.Path(__file__).resolve().parent / "BENCH_sourceflow.json"

SWEEP = (10, 100, 1_000, 10_000)

TEMPLATE = """\
ASSAY scale
START
fluid reagent, diluent;
fluid bank[{n}];
VAR i;
FOR i FROM 1 TO {n} START
bank[i] = MIX reagent AND diluent IN RATIOS 1 : 3 FOR 10;
OUTPUT it;
ENDFOR
END
"""


def timed(fn, *args, repeat=3):
    best = float("inf")
    for __ in range(repeat):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def unrolled_lint(source):
    compiled = run_compile(source=source).compiled
    return lint_program(compiled.program, AQUACORE_SPEC)


def test_source_verification_is_flat_in_trip_count():
    payload = {"template": "dilution series", "points": []}
    rows = {}
    for n in SWEEP:
        source = TEMPLATE.format(n=n)
        report = verify_source(source, name="scale")
        assert report.is_clean, report.render_text()
        t_source = timed(verify_source, source)
        # a single unrolled pass at N=10^4 already takes ~10 s; one
        # measurement is plenty to make the point
        t_unrolled = timed(unrolled_lint, source, repeat=3 if n <= 100 else 1)
        rows[n] = (t_source, t_unrolled, report.extras["fixpoint"]["sweeps"])
        payload["points"].append(
            {
                "n": n,
                "source_ms": round(t_source * 1000, 3),
                "unrolled_ms": round(t_unrolled * 1000, 3),
                "sweeps": report.extras["fixpoint"]["sweeps"],
            }
        )
        _report.record(
            "source-level verification scaling",
            f"N={n} dilution series, rolled vs unrolled lint",
            "rolled analysis independent of N",
            f"source {t_source * 1000:.2f} ms "
            f"({report.extras['fixpoint']['sweeps']} sweeps), "
            f"unrolled {t_unrolled * 1000:.2f} ms",
        )

    sweeps = {row[2] for row in rows.values()}
    assert len(sweeps) == 1, f"sweep count varies with N: {rows}"

    t_small = rows[SWEEP[0]]
    t_large = rows[SWEEP[-1]]
    # the unrolled pipeline pays per iteration; the verifier does not
    assert t_large[1] > t_small[1] * 10
    assert t_large[1] > t_large[0] * 10
    # "O(1)" with a generous allowance for timer noise
    assert t_large[0] < t_small[0] * 20 + 0.05

    payload["sweeps"] = sweeps.pop()
    payload["speedup_at_largest_n"] = round(t_large[1] / t_large[0], 1)
    _report.record(
        "source-level verification scaling",
        f"speedup at N={SWEEP[-1]}",
        None,
        f"{payload['speedup_at_largest_n']}x",
    )
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
