"""Rounded plans must survive strict metering.

The whole point of the IVol rounding step is that every planned transfer is
an exact integer multiple of the least count — so a machine whose pump
*rejects* non-multiples (instead of quantising them) must execute the
compiled assays without a single metering error.
"""

import pytest

from repro.compiler.passes import run_compile
from repro.machine.interpreter import Machine
from repro.machine.separation import FractionalYield
from repro.machine.spec import AQUACORE_SPEC, AQUACORE_XL_SPEC
from repro.runtime.executor import AssayExecutor
from repro.assays import enzyme, generators, glucose, glycomics, paper_example
from fractions import Fraction


class TestStrictMetering:
    @pytest.mark.parametrize(
        "source",
        [glucose.SOURCE, enzyme.SOURCE, paper_example.SOURCE],
        ids=["glucose", "enzyme", "figure2"],
    )
    def test_static_assays(self, source):
        compiled = run_compile(source=source).compiled
        machine = Machine(AQUACORE_SPEC, strict_metering=True)
        result = AssayExecutor(compiled, machine).run()
        assert result.regenerations == 0

    def test_random_dags(self):
        for seed in range(8):
            dag = generators.layered_random_dag(4, 3, 2, seed=seed, max_ratio=9)
            compiled = run_compile(dag=dag, spec=AQUACORE_XL_SPEC).compiled
            machine = Machine(AQUACORE_XL_SPEC, strict_metering=True)
            AssayExecutor(compiled, machine).run()

    def test_glycomics_runtime_case(self):
        """Run-time dispensing quantises per-partition volumes, so even the
        measured-volume path stays strict-metering clean... provided the
        separation yields are themselves least-count multiples."""
        compiled = run_compile(source=glycomics.SOURCE).compiled
        machine = Machine(
            AQUACORE_SPEC,
            strict_metering=True,
            separation_models={
                "separator1": FractionalYield(Fraction(1, 2)),
                "separator2": FractionalYield(Fraction(1, 2)),
            },
        )
        result = AssayExecutor(compiled, machine).run()
        assert result.regenerations == 0
