"""The interconnect graph: hosts, switches, directed links, static routes.

A :class:`Topology` is a pure description — vertices, directed
:class:`Link` objects, and a next-hop table or rule giving, per
``(vertex, dst host)``, the link to take. Generators (:mod:`.generators`)
install rules; the :class:`~repro.netsim.topology.routed.RoutedFabric`
then *binds* the topology to a simulator, giving every link a
:class:`~repro.sim.resources.FIFOServer` so per-link serialization and
queueing accrue as messages traverse it.

Hosts are the fabric's node ids (``0 .. num_hosts-1``) and appear in the
graph as vertices named ``h<i>``; switches carry generator-chosen names
(``pod0.edge1``, ``core3``, ...). Routes are *static and deterministic*:
one path per (src, dst) pair, computed on first use and cached, so
simulated timings stay reproducible byte-for-byte.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from ...errors import TopologyError
from ...sim.core import Simulator
from ...sim.resources import FIFOServer
from ..config import FabricParams

__all__ = ["Link", "Topology", "host_vertex"]


def host_vertex(node_id: int) -> str:
    """The graph vertex name for fabric node ``node_id``."""
    return f"h{node_id}"


class Link:
    """One directed link: an edge of the interconnect graph.

    ``bandwidth``/``latency`` may be left ``None`` by generators; binding
    the topology to a fabric fills them from the fabric's
    :class:`~repro.netsim.config.FabricParams` (so one topology shape can
    be priced under different network configs). ``server`` is the link's
    FIFO queue, created at bind time; ``messages``/``bytes`` count the
    traffic the link carried.
    """

    __slots__ = ("name", "src", "dst", "bandwidth", "latency", "server",
                 "messages", "bytes")

    def __init__(self, src: str, dst: str,
                 bandwidth: Optional[float] = None,
                 latency: Optional[float] = None):
        self.name = f"{src}->{dst}"
        self.src = src
        self.dst = dst
        self.bandwidth = bandwidth
        self.latency = latency
        self.server: Optional[FIFOServer] = None
        self.messages = 0
        self.bytes = 0

    def __repr__(self) -> str:
        return f"<Link {self.name}>"


class Topology:
    """A named interconnect graph with per-destination next-hop routes.

    Construction protocol::

        topo = Topology("fat_tree(k=4)", num_hosts=16)
        topo.add_switch("pod0.edge0")
        link = topo.add_link("h0", "pod0.edge0")
        topo.set_next_hop("h0", dst=5, link=link)   # and/or a rule:
        topo.set_next_hop_rule(lambda vertex, dst: link)

    ``route(src, dst)`` then walks the next hops (table entry first,
    else the rule) into a tuple of links, validating on the way that the
    path terminates at the destination host without revisiting a vertex.
    """

    def __init__(self, name: str, num_hosts: int):
        if num_hosts < 1:
            raise TopologyError(f"topology needs >= 1 host, got {num_hosts}")
        self.name = name
        self.num_hosts = num_hosts
        self.switches: list[str] = []
        self._vertices: set[str] = {host_vertex(i) for i in range(num_hosts)}
        self._links: dict[str, Link] = {}
        self._next_hop: dict[tuple[str, int], Link] = {}
        self._rule: Optional[Callable[[str, int], Optional[Link]]] = None
        self._routes: dict[tuple[int, int], tuple[Link, ...]] = {}
        self._bound = False

    # -- construction ---------------------------------------------------
    def add_switch(self, name: str) -> str:
        """Declare a switch vertex; returns its name."""
        if name in self._vertices:
            raise TopologyError(f"duplicate vertex {name!r}")
        self._vertices.add(name)
        self.switches.append(name)
        return name

    def add_link(self, src: str, dst: str,
                 bandwidth: Optional[float] = None,
                 latency: Optional[float] = None) -> Link:
        """Add a directed link ``src -> dst``; returns it."""
        for v in (src, dst):
            if v not in self._vertices:
                raise TopologyError(f"link endpoint {v!r} is not a vertex")
        link = Link(src, dst, bandwidth, latency)
        if link.name in self._links:
            raise TopologyError(f"duplicate link {link.name}")
        self._links[link.name] = link
        return link

    def add_duplex(self, a: str, b: str,
                   bandwidth: Optional[float] = None,
                   latency: Optional[float] = None) -> tuple[Link, Link]:
        """Add both directions of a full-duplex link between ``a``, ``b``."""
        return (self.add_link(a, b, bandwidth, latency),
                self.add_link(b, a, bandwidth, latency))

    def set_next_hop(self, vertex: str, dst: int, link: Link) -> None:
        """Route traffic for host ``dst`` standing at ``vertex`` via ``link``."""
        if link.src != vertex:
            raise TopologyError(
                f"next hop at {vertex!r} must leave that vertex, got {link.name}")
        self._next_hop[(vertex, dst)] = link

    def set_next_hop_rule(
            self, rule: Callable[[str, int], Optional[Link]]) -> None:
        """Route with ``rule(vertex, dst) -> link`` (or ``None``) wherever
        the table has no entry; evaluated lazily, one hop at a time, the
        first time :meth:`route` walks a pair."""
        self._rule = rule

    # -- introspection --------------------------------------------------
    def links(self) -> Iterator[Link]:
        """All links, in deterministic (name-sorted) order."""
        for name in sorted(self._links):
            yield self._links[name]

    def link(self, src: str, dst: str) -> Link:
        """The directed link ``src -> dst`` (raises if absent)."""
        try:
            return self._links[f"{src}->{dst}"]
        except KeyError:
            raise TopologyError(f"no link {src}->{dst} in {self.name}") from None

    @property
    def num_links(self) -> int:
        """Number of directed links."""
        return len(self._links)

    def describe(self) -> str:
        """One-line human summary."""
        return (f"{self.name}: {self.num_hosts} hosts, "
                f"{len(self.switches)} switches, {self.num_links} links")

    # -- routing --------------------------------------------------------
    def route(self, src: int, dst: int) -> tuple[Link, ...]:
        """The static path from host ``src`` to host ``dst`` as links.

        Computed on first use and cached per pair. ``src == dst`` yields
        the empty path. Raises :class:`~repro.errors.TopologyError` on
        missing next hops, hops that do not leave their vertex, paths
        that revisit a vertex (routing loop), or paths that end anywhere
        but the destination host.
        """
        key = (src, dst)
        cached = self._routes.get(key)
        if cached is not None:
            return cached
        for h in key:
            if not 0 <= h < self.num_hosts:
                raise TopologyError(
                    f"host {h} out of range for {self.name} "
                    f"({self.num_hosts} hosts)")
        goal = host_vertex(dst)
        vertex = host_vertex(src)
        path: list[Link] = []
        visited = {vertex}
        while vertex != goal:
            link = self._next_hop.get((vertex, dst))
            if link is None and self._rule is not None:
                link = self._rule(vertex, dst)
            if link is None:
                raise TopologyError(
                    f"{self.name}: no next hop toward host {dst} "
                    f"at {vertex!r}")
            if link.src != vertex:
                raise TopologyError(
                    f"{self.name}: next hop at {vertex!r} must leave that "
                    f"vertex, got {link.name}")
            path.append(link)
            vertex = link.dst
            if vertex in visited:
                raise TopologyError(
                    f"{self.name}: routing loop toward host {dst} "
                    f"revisits {vertex!r}")
            visited.add(vertex)
        result = tuple(path)
        self._routes[key] = result
        return result

    def validate(self) -> None:
        """Walk and check every host pair's route (O(hosts²) walks)."""
        for src in range(self.num_hosts):
            for dst in range(self.num_hosts):
                self.route(src, dst)

    # -- binding --------------------------------------------------------
    def bind(self, sim: Simulator, params: FabricParams) -> None:
        """Attach FIFO queues to every link and price unset links.

        Links whose generator left ``bandwidth``/``latency`` as ``None``
        inherit ``params.bandwidth`` / ``params.latency`` — the fabric's
        parameters are interpreted *per hop* on a routed topology.
        Idempotent per topology object; a topology can only be bound to
        one simulator (reusing the object across worlds would alias
        queue state).
        """
        if self._bound:
            raise TopologyError(
                f"topology {self.name!r} is already bound to a simulator; "
                "build a fresh ClusterSpec/topology per World")
        for link in self.links():
            if link.bandwidth is None:
                link.bandwidth = params.bandwidth
            if link.latency is None:
                link.latency = params.latency
            link.server = FIFOServer(sim, name=f"link.{link.name}")
        self._bound = True
