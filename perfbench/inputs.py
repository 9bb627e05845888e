"""Seeded inputs for the three workloads, each with the reason it is there.

Everything here is a pure function of the workload seed: the same seed
gives the same corpus, the same served-job schedule and the same source
variants.  Inputs are built from the public assay modules
(``repro.assays``) and from the repository's example walkthrough; the
program under test only ever sees the generated sources and DAGs.
"""

from __future__ import annotations

import importlib.util
import pathlib
import random
from dataclasses import dataclass
from collections.abc import Callable, Iterator
from typing import Any

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: EnzymeN 5 and 6 fail certify on the default AquaCore machine
#: (SCHED-DOUBLE-BOOK), EnzymeN 7 and up crash codegen with a raw
#: AllocationError, so the timed corpus compiles EnzymeN 5 and 6 for the
#: larger machine, where they certify clean; see README.md "Known failures".
ENZYME_N_MACHINE = "aquacore-xl"

#: random layered DAGs per compile-cold run (seeded from the workload seed).
RANDOM_DAGS = 4


@dataclass(frozen=True)
class CompileInput:
    """One compile-cold corpus entry.

    ``make`` returns fresh ``run_compile`` keyword arguments on every call,
    so no compile can reuse solver caches another compile left on a DAG.
    """

    name: str
    objective: str
    why: str
    make: Callable[[], dict[str, Any]]
    machine: str = "aquacore"


def custom_example_source() -> str:
    """The example walkthrough's assay (kept as a script, not a module)."""
    path = ROOT / "examples" / "custom_assay.py"
    spec = importlib.util.spec_from_file_location("custom_assay", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SOURCE


def paper_sources() -> dict[str, str]:
    """The paper assays and the extra wet-lab protocols, as source text."""
    from repro.assays import enzyme, extra, glucose, glycomics, paper_example

    return {
        "figure2": paper_example.SOURCE,
        "glucose": glucose.SOURCE,
        "glycomics": glycomics.SOURCE,
        "enzyme": enzyme.SOURCE,
        "elisa": extra.ELISA_SOURCE,
        "bradford": extra.BRADFORD_SOURCE,
        "pcr-prep": extra.PCR_PREP_SOURCE,
    }


def compile_corpus(seed: int) -> list[CompileInput]:
    """The compile-cold corpus: fixed entries plus seeded random DAGs."""
    from repro.assays import generators, gradients

    def source(text: str) -> Callable[[], dict[str, Any]]:
        return lambda: {"source": text}

    def dag(build: Callable[[], Any]) -> Callable[[], dict[str, Any]]:
        return lambda: {"dag": build()}

    sources = paper_sources()
    sources["custom-example"] = custom_example_source()
    why_source = {
        "figure2": "paper Figure 2 example; smallest DAGSolve-only plan",
        "glucose": "paper Figure 12 assay; DAGSolve-only plan",
        "glycomics": "paper Figure 13; runtime-deferred (partition pass)",
        "enzyme": "paper Figure 14; LP plan over 64 unrolled mixes",
        "elisa": "extra protocol; separation with yield hints",
        "bradford": "extra protocol; LP plan with a 1:50 shared reagent",
        "pcr-prep": "extra protocol; LP plan with a four-way master mix",
        "custom-example": "example walkthrough; separation plus branch",
    }
    entries = [
        CompileInput(name, "default", why_source[name], source(text))
        for name, text in sources.items()
    ]
    entries += [
        CompileInput(
            "gen-enzyme-4", "default",
            "EnzymeN 4 as a DAG; LP plan without a parse",
            dag(lambda: generators.enzyme_n(4)),
        ),
        CompileInput(
            "gen-dilution-6", "default",
            "serial dilution chain; LP plan",
            dag(lambda: generators.serial_dilution(6)),
        ),
        CompileInput(
            "gen-mixtree-3", "default",
            "binary mix tree; DAGSolve-only plan",
            dag(lambda: generators.binary_mix_tree(3)),
        ),
        CompileInput(
            "enzyme-n5", "default",
            "EnzymeN 5; replicate plus the Fraction reference DAGSolve",
            dag(lambda: generators.enzyme_n(5)),
            ENZYME_N_MACHINE,
        ),
        CompileInput(
            "enzyme-n6", "default",
            "EnzymeN 6; the largest size that certifies, dominates a sweep",
            dag(lambda: generators.enzyme_n(6)),
            ENZYME_N_MACHINE,
        ),
    ]
    for index, built in enumerate(gradients.gradient_corpus()):
        for objective in ("default", "waste"):
            entries.append(
                CompileInput(
                    f"{built.name}", objective,
                    "gradient family under both objectives; the waste "
                    "objective reorders the hierarchy round",
                    dag(lambda i=index: gradients.gradient_corpus()[i]),
                )
            )
    rng = random.Random(f"compile-cold|{seed}")
    for __ in range(RANDOM_DAGS):
        dag_seed = rng.randrange(2**31)
        entries.append(
            CompileInput(
                f"random-{dag_seed}", "default",
                "seeded layered_random_dag(4, 5, 5); inputs no one tuned for",
                dag(
                    lambda s=dag_seed: generators.layered_random_dag(
                        4, 5, 5, seed=s
                    )
                ),
            )
        )
    return entries


# ---------------------------------------------------------------------------
# serve-mixed: a hot set of repeated jobs plus unique seeded variants
# ---------------------------------------------------------------------------
#: one job in every block of this many is a unique cold variant (20%);
#: the rest repeat the hot set (warm cache hits).
BLOCK = 5
#: hot-set sources also repeated under ``objective: waste``.
HOT_WASTE = ("figure2", "bradford", "pcr-prep")
#: every this-many-th variant asks for ``objective: waste``.
VARIANT_WASTE_EVERY = 4
TENANTS = ("alpha", "beta")

_ENZYME_TEMPLATE = """\
ASSAY enzyme_variant
START
VAR inhibitor_diluent, enzyme_diluent, substrate_diluent;
VAR i, j, k, temp, RESULT[3][3][3];
fluid Diluted_Inhibitor[3], Diluted_Enzyme[3], Diluted_Substrate[3];
fluid inhibitor, enzyme, diluent, substrate;
inhibitor_diluent = 1;
enzyme_diluent = 1;
substrate_diluent = 1;
temp = 1;
FOR i FROM 1 TO 3 START
Diluted_Inhibitor[i] = MIX inhibitor AND diluent IN RATIOS 1 : inhibitor_diluent FOR 30;
temp = temp * {a};
inhibitor_diluent = temp - 1;
ENDFOR
temp = 1;
FOR j FROM 1 TO 3 START
Diluted_Enzyme[j] = MIX enzyme AND diluent IN RATIOS 1 : enzyme_diluent FOR 30;
temp = temp * {b};
enzyme_diluent = temp - 1;
ENDFOR
temp = 1;
FOR k FROM 1 TO 3 START
Diluted_Substrate[k] = MIX substrate AND diluent IN RATIOS 1 : substrate_diluent FOR 30;
temp = temp * {c};
substrate_diluent = temp - 1;
ENDFOR
FOR i FROM 1 TO 3 START
FOR j FROM 1 TO 3 START
FOR k FROM 1 TO 3 START
MIX Diluted_Inhibitor[i] AND Diluted_Enzyme[j] AND Diluted_Substrate[k] FOR 60;
INCUBATE it AT 37 FOR 300;
SENSE OPTICAL it INTO RESULT[i][j][k];
ENDFOR
ENDFOR
ENDFOR
END
"""

_BRADFORD_TEMPLATE = """\
ASSAY bradford_variant
START
fluid bsa, diluent, dye, unknown;
fluid standard[5];
VAR i, parts, Curve[5], Sample;
parts = 1;
FOR i FROM 1 TO 5 START
standard[i] = MIX bsa AND diluent IN RATIOS 1 : parts FOR 15;
parts = parts * {step};
ENDFOR
FOR i FROM 1 TO 5 START
MIX standard[i] AND dye IN RATIOS 1 : {dye} FOR 20;
INCUBATE it AT 25 FOR 600;
SENSE OPTICAL it INTO Curve[i];
ENDFOR
MIX unknown AND dye IN RATIOS 1 : {dye} FOR 20;
INCUBATE it AT 25 FOR 600;
SENSE OPTICAL it INTO Sample;
END
"""

_PCR_TEMPLATE = """\
ASSAY pcr_variant
START
fluid buffer, dntps, primers, polymerase, master, diluent, template;
fluid dilution[3];
VAR i, parts, Ct[3];
master = MIX buffer AND dntps AND primers AND polymerase
    IN RATIOS {m1} : {m2} : {m3} : 1 FOR 30;
parts = {p0};
FOR i FROM 1 TO 3 START
dilution[i] = MIX template AND diluent IN RATIOS 1 : parts FOR 15;
parts = parts * {pm} + {p0};
ENDFOR
FOR i FROM 1 TO 3 START
MIX master AND dilution[i] IN RATIOS {q} : 1 FOR 20;
INCUBATE it AT 95 FOR 120;
SENSE FLUORESCENCE it INTO Ct[i];
ENDFOR
END
"""

#: template -> (why, parameter ranges).  Glucose-style templates are left
#: out on purpose: they plan in ~8 ms and would hide the hierarchy.
VARIANT_TEMPLATES: dict[str, tuple[str, str, dict[str, range]]] = {
    "enzyme": (
        _ENZYME_TEMPLATE,
        "enzyme dilution cube with new dilution factors; LP plus cascade",
        {"a": range(4, 13), "b": range(4, 13), "c": range(4, 13)},
    ),
    "bradford": (
        _BRADFORD_TEMPLATE,
        "Bradford curve with a new step and dye ratio; LP plan",
        {"step": range(2, 4), "dye": range(20, 81)},
    ),
    "pcr-prep": (
        _PCR_TEMPLATE,
        "PCR master mix with new ratios; LP plan with extreme dilutions",
        {
            "m1": range(6, 15),
            "m2": range(3, 8),
            "m3": range(2, 7),
            "p0": range(4, 10),
            "pm": range(5, 11),
            "q": range(3, 7),
        },
    ),
}


@dataclass(frozen=True)
class ServedJob:
    """One scheduled compile job of the serve-mixed open loop."""

    index: int
    due_s: float
    tenant: str
    name: str
    source: str
    objective: str
    hot: bool


def hot_set() -> list[tuple[str, str, str]]:
    """``(name, source, objective)`` for every repeated (warm) entry."""
    sources = paper_sources()
    return [(name, text, "default") for name, text in sources.items()] + [
        (name, sources[name], "waste") for name in HOT_WASTE
    ]


def source_variants(seed: int) -> Iterator[tuple[str, str]]:
    """Distinct ``(name, source)`` variants, rotating through templates."""
    rng = random.Random(f"serve-variants|{seed}")
    seen: set[str] = set()
    templates = list(VARIANT_TEMPLATES.items())
    while True:
        template_name, (template, __, ranges) = templates[
            len(seen) % len(templates)
        ]
        params = {key: rng.choice(values) for key, values in ranges.items()}
        text = template.format(**params)
        if text in seen:
            continue
        seen.add(text)
        label = "-".join(str(params[key]) for key in sorted(params))
        yield f"{template_name}~{label}", text


def served_schedule(seed: int, rate: float, seconds: float) -> list[ServedJob]:
    """The open-loop schedule: evenly spaced due times, seeded job mix.

    The mix is balanced so that seeds change which jobs run, not how
    much of each kind: every block of :data:`BLOCK` jobs holds one
    variant at a seeded position, and the hot set repeats in seeded
    shuffled rounds, each entry once per round.
    """
    rng = random.Random(f"serve-schedule|{seed}")
    total = max(1, int(rate * seconds))
    hot = hot_set()
    hot_round: list[tuple[str, str, str]] = []
    variants = source_variants(seed)
    n_variants = 0
    jobs = []
    for block_start in range(0, total, BLOCK):
        variant_at = block_start + rng.randrange(BLOCK)
        for index in range(block_start, min(block_start + BLOCK, total)):
            tenant = rng.choice(TENANTS)
            if index == variant_at:
                name, text = next(variants)
                n_variants += 1
                objective = (
                    "waste" if n_variants % VARIANT_WASTE_EVERY == 0
                    else "default"
                )
            else:
                if not hot_round:
                    hot_round = rng.sample(hot, len(hot))
                name, text, objective = hot_round.pop()
            jobs.append(
                ServedJob(
                    index, index / rate, tenant, name, text, objective,
                    index != variant_at,
                )
            )
    return jobs


# ---------------------------------------------------------------------------
# execute-faults: static corpus assays plus glycomics
# ---------------------------------------------------------------------------
EXECUTE_WHY = {
    "figure2": "smallest static plan; regeneration-light",
    "glucose": "paper Figure 12; sensed products, cheap scenarios",
    "glycomics": "runtime-deferred assignment (core.runtime_assign)",
    "enzyme": "paper Figure 14; ~60 regenerations per scenario",
    "elisa": "separation under faults",
    "bradford": "shared heavy reagent under depletion faults",
    "pcr-prep": "extreme dilutions; the scenario that can fail cleanly",
    "custom-example": "separation plus run-time branch under faults",
}


def execute_sources() -> dict[str, str]:
    sources = paper_sources()
    sources["custom-example"] = custom_example_source()
    return {name: sources[name] for name in EXECUTE_WHY}
