"""Resolver edge cases: plan lookup misses, partition ordering, guards."""

from fractions import Fraction

import pytest

from repro.compiler.passes import run_compile
from repro.core.errors import PartitionError
from repro.ir.instructions import input_, move
from repro.runtime.executor import PlanResolver, RuntimeResolver
from repro.assays import glucose, glycomics


class TestPlanResolver:
    @pytest.fixture
    def resolver(self):
        compiled = run_compile(source=glucose.SOURCE).compiled
        return PlanResolver(compiled.assignment), compiled

    def test_edge_lookup(self, resolver):
        plan_resolver, compiled = resolver
        instruction = move("mixer1", "s1", 1, edge=("Glucose", "a"))
        assert (
            plan_resolver(instruction)
            == compiled.assignment.edge_volume[("Glucose", "a")]
        )

    def test_unknown_edge_returns_none(self, resolver):
        plan_resolver, __ = resolver
        assert plan_resolver(move("mixer1", "s1", 1, edge=("X", "Y"))) is None

    def test_input_volume_from_node_meta(self, resolver):
        plan_resolver, compiled = resolver
        instruction = input_("s1", "ip1", meta={"node": "Glucose"})
        assert (
            plan_resolver(instruction)
            == compiled.assignment.node_volume["Glucose"]
        )

    def test_plain_move_unresolved(self, resolver):
        plan_resolver, __ = resolver
        assert plan_resolver(move("sensor2", "mixer1")) is None


class TestRuntimeResolver:
    @pytest.fixture
    def resolver(self):
        compiled = run_compile(source=glycomics.SOURCE).compiled
        return RuntimeResolver(compiled), compiled

    def test_static_requires_no_planner(self):
        compiled = run_compile(source=glucose.SOURCE).compiled
        with pytest.raises(PartitionError):
            RuntimeResolver(compiled)

    def test_first_partition_resolves_immediately(self, resolver):
        runtime_resolver, __ = resolver
        instruction = move("mixer1", "s2", 1, edge=("buffer1a", "it@0"))
        volume = runtime_resolver(instruction)
        assert volume == 50  # half of the 100 nl separator load

    def test_later_partition_without_measurement_raises(self, resolver):
        runtime_resolver, __ = resolver
        instruction = move("mixer1", "s3", 1, edge=("buffer2", "it@2"))
        with pytest.raises(PartitionError):
            runtime_resolver(instruction)

    def test_measurement_unlocks_partition(self, resolver):
        runtime_resolver, __ = resolver
        runtime_resolver.record_measurement("effluent", Fraction(30))
        instruction = move("mixer1", "s3", 1, edge=("buffer2", "it@2"))
        assert runtime_resolver(instruction) is not None

    def test_cut_edge_resolves_through_stub(self, resolver):
        runtime_resolver, __ = resolver
        runtime_resolver.record_measurement("effluent", Fraction(30))
        instruction = move("mixer1", "s9", 1, edge=("effluent", "it@2"))
        volume = runtime_resolver(instruction)
        # the 50 nl buffer3a split binds the scale at 50/(10/11) = 55 (the
        # measured 30 nl would have allowed 660): X1 draw = 55/22 = 2.5 nl
        assert volume == Fraction(5, 2)

    def test_unknown_consumer_raises(self, resolver):
        runtime_resolver, __ = resolver
        instruction = move("mixer1", "s9", 1, edge=("effluent", "nope"))
        with pytest.raises(PartitionError):
            runtime_resolver(instruction)

    def test_volumes_are_quantised(self, resolver):
        runtime_resolver, compiled = resolver
        runtime_resolver.record_measurement("effluent", Fraction(301, 10))
        instruction = move("mixer1", "s9", 1, edge=("effluent", "it@2"))
        volume = runtime_resolver(instruction)
        least = compiled.spec.limits.least_count
        assert (volume / least).denominator == 1
