"""Channel-topology tests: routing, distances, conflicts, machine wiring."""

from fractions import Fraction

import pytest

from repro.compiler.passes import run_compile
from repro.machine.errors import ComponentError
from repro.machine.interpreter import Machine
from repro.machine.spec import AQUACORE_SPEC
from repro.machine.topology import ChannelTopology, bus_topology, ring_topology
from repro.runtime.executor import AssayExecutor
from repro.assays import glucose


class TestGraphBasics:
    def test_add_channel_is_symmetric(self):
        topology = ChannelTopology("t")
        topology.add_channel("a", "b")
        assert topology.is_routable("a", "b")
        assert topology.is_routable("b", "a")
        assert topology.channel_count == 1

    def test_self_channel_rejected(self):
        topology = ChannelTopology("t")
        with pytest.raises(ComponentError):
            topology.add_channel("a", "a")

    def test_route_is_shortest(self):
        topology = ChannelTopology("t")
        for a, b in (("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")):
            topology.add_channel(a, b)
        assert topology.hops("a", "c") == 2  # a-b-c or a-d-c
        assert topology.hops("a", "d") == 1

    def test_unroutable_raises(self):
        topology = ChannelTopology("t")
        topology.add_channel("a", "b")
        topology.add_location("island")
        with pytest.raises(ComponentError):
            topology.route("a", "island")

    def test_subwells_route_as_their_unit(self):
        topology = ChannelTopology("t")
        topology.add_channel("mixer1", "separator1")
        assert topology.hops("mixer1", "separator1.matrix") == 1

    def test_same_location_zero_hops(self):
        topology = ChannelTopology("t")
        topology.add_location("a")
        assert topology.hops("a", "a") == 0


class TestBuilders:
    def test_bus_every_pair_two_hops(self):
        topology = bus_topology(AQUACORE_SPEC)
        assert topology.hops("s1", "mixer1") == 2
        assert topology.hops("ip1", "op1") == 2
        assert topology.hops("s1", "s24") == 2

    def test_ring_distances_vary(self):
        topology = ring_topology(AQUACORE_SPEC)
        distances = {
            topology.hops("s1", location)
            for location in ("s2", "mixer1", "op1")
        }
        assert len(distances) > 1  # layout matters on a ring

    def test_ring_is_connected(self):
        topology = ring_topology(AQUACORE_SPEC)
        for location in topology.locations():
            assert topology.is_routable("s1", location)


class TestConflicts:
    def test_bus_transfers_always_conflict(self):
        """Every bus transfer crosses the backbone: no two can overlap —
        exactly why AquaCore executes wet operations serially."""
        topology = bus_topology(AQUACORE_SPEC)
        assert topology.conflicts(("s1", "mixer1"), ("s2", "heater1"))

    def test_ring_allows_disjoint_transfers(self):
        topology = ChannelTopology("mini-ring")
        for a, b in (("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")):
            topology.add_channel(a, b)
        assert not topology.conflicts(("a", "b"), ("c", "d"))
        assert topology.conflicts(("a", "b"), ("b", "c"))

    def test_shared_endpoint_handoff_allowed(self):
        """A -> B then B -> C share only the hand-off point B: with
        ``allow_shared_endpoint`` that deliberate sequential chaining is
        not a conflict."""
        topology = ChannelTopology("mini-ring")
        for a, b in (("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")):
            topology.add_channel(a, b)
        assert topology.conflicts(("a", "b"), ("b", "c"))
        assert not topology.conflicts(
            ("a", "b"), ("b", "c"), allow_shared_endpoint=True
        )

    def test_shared_interior_still_conflicts(self):
        """Relaxing endpoints must not forgive routes crossing through
        a shared *interior* location."""
        topology = ChannelTopology("star")
        for leaf in ("a", "b", "c", "d"):
            topology.add_channel(leaf, "hub")
        # a->b and c->d both route through the hub interior.
        assert topology.conflicts(
            ("a", "b"), ("c", "d"), allow_shared_endpoint=True
        )

    def test_shared_endpoint_canonicalises_subwells(self):
        topology = ChannelTopology("t")
        topology.add_channel("mixer1", "separator1")
        topology.add_channel("separator1", "s1")
        assert not topology.conflicts(
            ("mixer1", "separator1.matrix"),
            ("separator1", "s1"),
            allow_shared_endpoint=True,
        )

    def test_shared_locations_reports_contention_set(self):
        topology = bus_topology(AQUACORE_SPEC)
        shared = topology.shared_locations(("s1", "mixer1"), ("s2", "heater1"))
        assert shared == {"__bus__"}


class TestMachineIntegration:
    def test_bus_machine_runs_glucose(self):
        compiled = run_compile(source=glucose.SOURCE).compiled
        machine = Machine(AQUACORE_SPEC, topology=bus_topology(AQUACORE_SPEC))
        result = AssayExecutor(compiled, machine).run()
        assert result.regenerations == 0

    def test_transfer_time_scales_with_hops(self):
        compiled = run_compile(source=glucose.SOURCE).compiled
        flat = Machine(AQUACORE_SPEC)
        bus = Machine(AQUACORE_SPEC, topology=bus_topology(AQUACORE_SPEC))
        t_flat = AssayExecutor(compiled, flat).run().trace.total_seconds
        t_bus = AssayExecutor(compiled, bus).run().trace.total_seconds
        # 18 transfers at 2 hops instead of 1 -> +18 s
        assert t_bus == t_flat + 18

    def test_unroutable_move_rejected(self):
        from repro.ir.instructions import input_, move

        topology = ChannelTopology("sparse")
        topology.add_channel("ip1", "s1")  # nothing else connected
        topology.add_location("mixer1")
        machine = Machine(AQUACORE_SPEC, topology=topology)
        machine.bind_port("ip1", "a")
        machine.execute(input_("s1", "ip1", abs_volume=Fraction(10)))
        with pytest.raises(ComponentError):
            machine.execute(move("mixer1", "s1"))
