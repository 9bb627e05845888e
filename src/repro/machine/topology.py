"""Channel topology: the physical interconnect of Figure 1.

The paper (Section 2.1): "These components are connected by a set of
channels ... At each end of each channel is a microfluidic pump that
effects fluid transfer from one component to another by peristalsis."

A :class:`ChannelTopology` is an undirected graph over *locations*
(reservoirs, functional units, ports; separator sub-wells route as their
unit).  It answers two questions the flat machine model abstracts away:

* **reachability** — is a `move src -> dst` physically routable?
* **distance** — how many channel segments does the transfer traverse?
  (each hop costs one pump actuation, so transfer time scales with it)

Two standard builders are provided: :func:`bus_topology`, the
AquaCore-style shared backbone where every location is one hop from the
bus (all transfers 2 hops), and :func:`ring_topology`, a minimal-valve
layout where distance varies with placement — useful for studying how
layout changes wet time.

Pass a topology to :class:`~repro.machine.interpreter.Machine` to make
moves route-aware; without one, the machine keeps the paper's abstract
constant-time transfers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from collections.abc import Iterable

from .errors import ComponentError
from .spec import MachineSpec

__all__ = ["ChannelTopology", "TOPOLOGIES", "bus_topology", "ring_topology"]

Segment = tuple[str, str]


def _canonical(location: str) -> str:
    """Sub-wells (``separator1.matrix``) route as their unit."""
    return location.split(".")[0]


@dataclass
class ChannelTopology:
    """Undirected channel graph with BFS routing and a route cache."""

    name: str
    adjacency: dict[str, set[str]] = field(default_factory=dict)
    _route_cache: dict[tuple[str, str], tuple[str, ...] | None] = field(
        default_factory=dict, repr=False
    )
    #: memoized pairwise contention verdicts — the race detector asks the
    #: same ``conflicts`` question for every may-happen-in-parallel
    #: transfer pair, so the matrix is a hot path.  Invalidated whenever a
    #: channel is added.
    _conflict_cache: dict[
        tuple[tuple[str, str], tuple[str, str], bool], bool
    ] = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------
    def add_location(self, location: str) -> None:
        self.adjacency.setdefault(location, set())

    def add_channel(self, a: str, b: str) -> None:
        if a == b:
            raise ComponentError(f"channel endpoints must differ ({a!r})")
        self.add_location(a)
        self.add_location(b)
        self.adjacency[a].add(b)
        self.adjacency[b].add(a)
        self._route_cache.clear()
        self._conflict_cache.clear()

    def locations(self) -> list[str]:
        return sorted(self.adjacency)

    @property
    def channel_count(self) -> int:
        return sum(len(peers) for peers in self.adjacency.values()) // 2

    # ------------------------------------------------------------------
    def route(self, src: str, dst: str) -> tuple[str, ...]:
        """Shortest location path ``src .. dst`` (inclusive).

        Raises :class:`ComponentError` when no channel path exists —
        the compile-time form of a physically impossible move.
        """
        a, b = _canonical(src), _canonical(dst)
        if a == b:
            return (a,)
        key = (a, b)
        if key not in self._route_cache:
            self._route_cache[key] = self._bfs(a, b)
        path = self._route_cache[key]
        if path is None:
            raise ComponentError(
                f"no channel route from {src!r} to {dst!r} on topology "
                f"{self.name!r}"
            )
        return path

    def hops(self, src: str, dst: str) -> int:
        """Number of channel segments a transfer traverses."""
        return len(self.route(src, dst)) - 1

    def is_routable(self, src: str, dst: str) -> bool:
        try:
            self.route(src, dst)
            return True
        except ComponentError:
            return False

    def _bfs(self, a: str, b: str) -> tuple[str, ...] | None:
        if a not in self.adjacency or b not in self.adjacency:
            return None
        previous: dict[str, str] = {}
        queue = deque([a])
        seen = {a}
        # ``previous[b]`` is fixed when ``b`` is first seen, so the search
        # can stop there: popping ``b`` later would give the same path.
        while queue and b not in seen:
            current = queue.popleft()
            for peer in sorted(self.adjacency[current]):
                if peer not in seen:
                    seen.add(peer)
                    previous[peer] = current
                    queue.append(peer)
        if b not in seen:
            return None
        path = [b]
        while path[-1] != a:
            path.append(previous[path[-1]])
        return tuple(reversed(path))

    # ------------------------------------------------------------------
    def segments_of(self, src: str, dst: str) -> list[Segment]:
        """The channel segments of a route, as sorted endpoint pairs —
        the unit of conflict for any future parallel scheduler."""
        path = self.route(src, dst)
        return [
            tuple(sorted((path[i], path[i + 1])))  # type: ignore[misc]
            for i in range(len(path) - 1)
        ]

    def shared_locations(
        self, first: tuple[str, str], second: tuple[str, str]
    ) -> set[str]:
        """Locations two transfers' routes have in common — the concrete
        contention set behind :meth:`conflicts`."""
        return set(self.route(*first)) & set(self.route(*second))

    def conflicts(
        self,
        first: tuple[str, str],
        second: tuple[str, str],
        *,
        allow_shared_endpoint: bool = False,
    ) -> bool:
        """Would two simultaneous transfers contend for hardware?

        Transfers conflict when their routes share *any* location —
        a channel junction, a pump, or an endpoint can serve one stream at
        a time.  (On a bus topology every pair conflicts through the
        backbone, which is why AquaCore's wet path is serial.)

        ``allow_shared_endpoint`` relaxes the one case where sharing is
        deliberate: a location that is an endpoint of *both* transfers —
        the hand-off point of a sequential pair like ``A -> B`` then
        ``B -> C`` — is excluded from the contention set.  Interior route
        locations still conflict even when excluded endpoints touch them.

        Verdicts are memoized per (pair, pair, flag) on the topology
        object; ``add_channel`` invalidates the memo.  Unroutable
        endpoint pairs raise without being cached (the route cache
        already makes the repeat raise cheap).
        """
        key = self._conflict_key(first, second, allow_shared_endpoint)
        cached = self._conflict_cache.get(key)
        if cached is not None:
            return cached
        shared = self.shared_locations(first, second)
        if allow_shared_endpoint and shared:
            ends_first = {_canonical(first[0]), _canonical(first[1])}
            ends_second = {_canonical(second[0]), _canonical(second[1])}
            shared = shared - (ends_first & ends_second)
        verdict = bool(shared)
        self._conflict_cache[key] = verdict
        return verdict

    @staticmethod
    def _conflict_key(
        first: tuple[str, str],
        second: tuple[str, str],
        allow_shared_endpoint: bool,
    ) -> tuple[tuple[str, str], tuple[str, str], bool]:
        """Canonical, symmetric memo key: sub-wells route as their unit
        and ``conflicts(a, b)`` equals ``conflicts(b, a)``."""
        a = (_canonical(first[0]), _canonical(first[1]))
        b = (_canonical(second[0]), _canonical(second[1]))
        if b < a:
            a, b = b, a
        return (a, b, allow_shared_endpoint)


def _all_locations(spec: MachineSpec) -> list[str]:
    locations = list(spec.reservoir_names())
    locations += [unit.name for unit in spec.functional_units]
    locations += list(spec.input_port_names())
    locations += list(spec.output_port_names())
    return locations


def bus_topology(spec: MachineSpec) -> ChannelTopology:
    """The AquaCore-style shared backbone: every location is one channel
    away from the central bus, so every transfer crosses exactly 2 hops."""
    topology = ChannelTopology(name=f"{spec.name}-bus")
    bus = "__bus__"
    topology.add_location(bus)
    for location in _all_locations(spec):
        topology.add_channel(location, bus)
    return topology


def ring_topology(spec: MachineSpec) -> ChannelTopology:
    """A minimal ring: locations connected in a cycle.  Distances vary with
    placement — the layout-sensitivity counterpoint to the bus."""
    topology = ChannelTopology(name=f"{spec.name}-ring")
    locations = _all_locations(spec)
    for a, b in zip(locations, locations[1:]):
        topology.add_channel(a, b)
    if len(locations) > 2:
        topology.add_channel(locations[-1], locations[0])
    return topology


#: Every topology a request may name (``--topology``, ``params.topology``).
TOPOLOGIES = {"bus": bus_topology, "ring": ring_topology}
