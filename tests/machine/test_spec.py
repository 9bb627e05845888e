"""Machine-spec tests."""

from dataclasses import fields
from fractions import Fraction

import pytest

from repro.core.fingerprint import spec_form
from repro.core.limits import HardwareLimits
from repro.machine.spec import (
    AQUACORE_SPEC,
    AQUACORE_XL_SPEC,
    FunctionalUnitSpec,
    MachineSpec,
)


class TestAquacoreSpec:
    def test_paper_units_present(self):
        names = {u.name for u in AQUACORE_SPEC.functional_units}
        assert {"mixer1", "heater1", "separator1", "separator2", "sensor2"} <= names

    def test_mode_routing(self):
        assert AQUACORE_SPEC.separator_for_mode("AF").name == "separator1"
        assert AQUACORE_SPEC.separator_for_mode("LC").name == "separator2"
        assert AQUACORE_SPEC.sensor_for_mode("OD").name == "sensor2"
        assert AQUACORE_SPEC.sensor_for_mode("FL").name == "sensor1"

    def test_unknown_mode_raises(self):
        with pytest.raises(KeyError):
            AQUACORE_SPEC.separator_for_mode("XYZ")

    def test_naming_schemes(self):
        assert AQUACORE_SPEC.reservoir_names()[0] == "s1"
        assert AQUACORE_SPEC.input_port_names()[0] == "ip1"
        assert AQUACORE_SPEC.output_port_names()[-1].startswith("op")

    def test_xl_is_larger(self):
        assert AQUACORE_XL_SPEC.n_reservoirs > AQUACORE_SPEC.n_reservoirs


class TestValidation:
    def test_duplicate_unit_names_rejected(self):
        with pytest.raises(ValueError):
            MachineSpec(
                name="bad",
                limits=AQUACORE_SPEC.limits,
                n_reservoirs=4,
                n_input_ports=4,
                n_output_ports=1,
                functional_units=(
                    FunctionalUnitSpec("mixer1", "mixer"),
                    FunctionalUnitSpec("mixer1", "mixer"),
                ),
            )

    def test_unknown_unit_kind_rejected(self):
        with pytest.raises(ValueError):
            FunctionalUnitSpec("frobnicator1", "frobnicator")

    def test_zero_reservoirs_rejected(self):
        with pytest.raises(ValueError):
            MachineSpec(
                name="bad",
                limits=AQUACORE_SPEC.limits,
                n_reservoirs=0,
                n_input_ports=1,
                n_output_ports=1,
                functional_units=(),
            )


class TestDerived:
    def test_capacity_defaults_to_machine_limit(self):
        unit = AQUACORE_SPEC.unit("mixer1")
        assert AQUACORE_SPEC.capacity_of(unit) == AQUACORE_SPEC.limits.max_capacity

    def test_capacity_override(self):
        unit = FunctionalUnitSpec("mixer9", "mixer", capacity=Fraction(42))
        assert AQUACORE_SPEC.capacity_of(unit) == 42

    def test_with_limits(self):
        coarse = HardwareLimits(max_capacity=10, least_count=1)
        spec = AQUACORE_SPEC.with_limits(coarse)
        assert spec.limits is coarse
        assert spec.n_reservoirs == AQUACORE_SPEC.n_reservoirs


def _linear_kind(spec, name):
    """The classification as a scan, in lookup precedence order."""
    if name in spec.reservoir_names():
        return "reservoir"
    if name in spec.input_port_names():
        return "input-port"
    if name in spec.output_port_names():
        return "output-port"
    for unit in spec.functional_units:
        if unit.name == name:
            return unit.kind
    return None


class TestComponentTable:
    @pytest.mark.parametrize(
        "spec", [AQUACORE_SPEC, AQUACORE_XL_SPEC], ids=lambda s: s.name
    )
    def test_table_agrees_with_linear_scan(self, spec):
        names = [
            *spec.reservoir_names(),
            *spec.input_port_names(),
            *spec.output_port_names(),
            *(unit.name for unit in spec.functional_units),
            "nowhere7",
        ]
        for name in names:
            kind = _linear_kind(spec, name)
            assert spec.component_kind(name) == kind
            if kind == "reservoir":
                expected = spec.limits.max_capacity
            elif kind in ("mixer", "heater", "separator", "sensor"):
                expected = spec.capacity_of(spec.unit(name))
            else:
                expected = None
            assert spec.location_capacity(name) == expected
        with pytest.raises(KeyError):
            spec.unit("nowhere7")

    def test_reservoir_claims_a_clashing_unit_name(self):
        spec = MachineSpec(
            name="clash",
            limits=AQUACORE_SPEC.limits,
            n_reservoirs=2,
            n_input_ports=1,
            n_output_ports=1,
            functional_units=(
                FunctionalUnitSpec("s1", "mixer", capacity=Fraction(5)),
            ),
        )
        assert spec.component_kind("s1") == _linear_kind(spec, "s1")
        assert spec.location_capacity("s1") == spec.limits.max_capacity
        assert spec.unit("s1").capacity == 5

    def test_table_is_not_a_field(self):
        assert {"_kind_of", "_unit_of"}.isdisjoint(
            f.name for f in fields(MachineSpec)
        )
        rebuilt = AQUACORE_SPEC.with_limits(AQUACORE_SPEC.limits)
        assert rebuilt == AQUACORE_SPEC
        assert spec_form(rebuilt) == spec_form(AQUACORE_SPEC)
        assert "_kind_of" not in repr(AQUACORE_SPEC)
