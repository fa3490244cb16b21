"""Topology generators: fat tree, dragonfly, torus.

Each generator returns a fully routed :class:`~.graph.Topology` whose
host capacity may exceed the cluster actually placed on it (a
``fat_tree(k=4)`` always has 16 host ports even if only 4 nodes attach).
Routes are static and deterministic — D-mod-k for the fat tree, minimal
(direct-gateway) paths for the dragonfly, dimension-order with shortest
wrap for the torus — so two runs of one workload traverse identical
links in identical order. Building costs O(links): each generator
indexes its vertices by coordinates and installs a next-hop rule, and
only the pairs actually routed are ever walked.

Link ``bandwidth``/``latency`` default to ``None`` and inherit the
fabric's :class:`~repro.netsim.config.FabricParams` per hop at bind
time; pass explicit values to price a topology's links differently from
the host NIC links.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from ...errors import TopologyError
from .graph import Link, Topology, host_vertex

__all__ = ["fat_tree", "dragonfly", "torus"]


def _attach_hosts(topo: Topology, switch_of: Callable[[int], str],
                  bandwidth: Optional[float],
                  latency: Optional[float]) -> dict[str, Link]:
    """Join every host ``h`` to switch ``switch_of(h)``; the host uplinks."""
    return {host_vertex(h): topo.add_duplex(host_vertex(h), switch_of(h),
                                            bandwidth, latency)[0]
            for h in range(topo.num_hosts)}


def _route_with(topo: Topology, uplinks: dict[str, Link],
                toward: Callable[[str, int], str]) -> Topology:
    """Install the rule: hosts take their uplink, and a switch takes the
    link to ``toward(switch, dst)``, the next vertex toward host ``dst``."""
    def next_hop(vertex: str, dst: int) -> Link:
        up = uplinks.get(vertex)
        return up if up is not None else topo.link(vertex, toward(vertex, dst))
    topo.set_next_hop_rule(next_hop)
    return topo


def fat_tree(k: int, bandwidth: Optional[float] = None,
             latency: Optional[float] = None) -> Topology:
    """A k-ary fat tree with D-mod-k routing (k pods, ``k**3/4`` hosts).

    Structure (Al-Fares et al.): ``k`` pods of ``k/2`` edge and ``k/2``
    aggregation switches, ``(k/2)**2`` core switches, ``k/2`` hosts per
    edge switch. Up-paths use destination-mod-k port selection — the
    deterministic ECMP variant — so distinct destinations spread over
    distinct core switches while one (src, dst) pair always takes one
    path.
    """
    if k < 2 or k % 2:
        raise TopologyError(f"fat_tree arity k must be even and >= 2, got {k}")
    half = k // 2
    hosts_per_pod = half * half
    capacity = k * hosts_per_pod
    topo = Topology(f"fat_tree(k={k})", num_hosts=capacity)

    def edge_name(p: int, e: int) -> str:
        return f"p{p}.e{e}"

    def agg_name(p: int, a: int) -> str:
        return f"p{p}.a{a}"

    def core_name(c: int) -> str:
        return f"core{c}"

    # switch -> (tier, pod, index within the pod; core: core number)
    where: dict[str, tuple[str, int, int]] = {}
    for p in range(k):
        for i in range(half):
            where[topo.add_switch(edge_name(p, i))] = ("e", p, i)
            where[topo.add_switch(agg_name(p, i))] = ("a", p, i)
    for c in range(half * half):
        where[topo.add_switch(core_name(c))] = ("c", 0, c)

    uplinks = _attach_hosts(
        topo, lambda h: edge_name(h // hosts_per_pod,
                                  (h % hosts_per_pod) // half),
        bandwidth, latency)
    for p in range(k):
        for e in range(half):
            for a in range(half):
                topo.add_duplex(edge_name(p, e), agg_name(p, a),
                                bandwidth, latency)
        for a in range(half):
            for c in range(a * half, (a + 1) * half):
                topo.add_duplex(agg_name(p, a), core_name(c),
                                bandwidth, latency)

    def toward(switch: str, dst: int) -> str:
        tier, p, i = where[switch]
        dp = dst // hosts_per_pod
        de = (dst % hosts_per_pod) // half
        if tier == "e":
            if p == dp and i == de:
                return host_vertex(dst)
            return agg_name(p, dst % half)  # D-mod-k up-port
        if tier == "a":
            if p == dp:
                return edge_name(p, de)
            return core_name(i * half + (dst // half) % half)
        return agg_name(dp, i // half)

    return _route_with(topo, uplinks, toward)


def dragonfly(a: int, p: int, h: int, bandwidth: Optional[float] = None,
              latency: Optional[float] = None) -> Topology:
    """A maximal dragonfly: ``a*h + 1`` groups, minimal routing.

    ``a`` routers per group (fully connected intra-group), ``p`` hosts
    per router, ``h`` global links per router. Every group pair is joined
    by exactly one global link (the balanced configuration of Kim et
    al.), so minimal routes are at most router → gateway → remote
    gateway → router: three switch hops.
    """
    if a < 1 or p < 1 or h < 1:
        raise TopologyError(
            f"dragonfly needs a, p, h >= 1, got a={a} p={p} h={h}")
    groups = a * h + 1
    capacity = groups * a * p
    topo = Topology(f"dragonfly(a={a},p={p},h={h})", num_hosts=capacity)

    def router(g: int, r: int) -> str:
        return f"g{g}.r{r}"

    def port_toward(src_g: int, dst_g: int) -> int:
        """Global-port index group ``src_g`` uses to reach ``dst_g``."""
        return dst_g - 1 if dst_g > src_g else dst_g

    def gateway(src_g: int, dst_g: int) -> int:
        """Router in ``src_g`` owning the global link toward ``dst_g``."""
        return port_toward(src_g, dst_g) // h

    where: dict[str, tuple[int, int]] = {}
    for g in range(groups):
        for r in range(a):
            where[topo.add_switch(router(g, r))] = (g, r)
    uplinks = _attach_hosts(
        topo, lambda host: router(host // (a * p), (host % (a * p)) // p),
        bandwidth, latency)
    for g in range(groups):
        for r1 in range(a):
            for r2 in range(r1 + 1, a):
                topo.add_duplex(router(g, r1), router(g, r2),
                                bandwidth, latency)
    for g1 in range(groups):
        for g2 in range(g1 + 1, groups):
            topo.add_duplex(router(g1, gateway(g1, g2)),
                            router(g2, gateway(g2, g1)),
                            bandwidth, latency)

    def toward(switch: str, dst: int) -> str:
        g, r = where[switch]
        dg, dr = dst // (a * p), (dst % (a * p)) // p
        if g == dg:
            return host_vertex(dst) if r == dr else router(g, dr)
        gw = gateway(g, dg)
        return router(dg, gateway(dg, g)) if r == gw else router(g, gw)

    return _route_with(topo, uplinks, toward)


def torus(dims: tuple[int, ...], bandwidth: Optional[float] = None,
          latency: Optional[float] = None) -> Topology:
    """An n-dimensional torus with dimension-order routing.

    One switch (and one host port) per lattice point; wraparound links in
    every dimension of size > 2 (size-2 dimensions collapse the two
    directions into one duplex link). Routes correct one dimension at a
    time, lowest dimension first, taking the shorter way around the ring
    (ties go forward) — the classic deadlock-free dimension-order walk.
    """
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise TopologyError(
            f"torus dims must be a non-empty tuple of sizes >= 1, got {dims}")
    capacity = math.prod(dims)
    topo = Topology(f"torus({'x'.join(map(str, dims))})", num_hosts=capacity)

    def coords(index: int) -> tuple[int, ...]:
        out = []
        for d in reversed(dims):
            out.append(index % d)
            index //= d
        return tuple(reversed(out))

    def switch(coord: tuple[int, ...]) -> str:
        return "s" + "_".join(map(str, coord))

    def neighbors(coord: tuple[int, ...]) -> list[tuple[int, ...]]:
        out = []
        for axis, n in enumerate(dims):
            if n == 1:
                continue
            steps = {1, n - 1}  # +1 and -1 mod n; identical when n == 2
            for step in sorted(steps):
                nb = list(coord)
                nb[axis] = (coord[axis] + step) % n
                out.append(tuple(nb))
        return out

    all_coords = [coords(i) for i in range(capacity)]
    where = {topo.add_switch(switch(coord)): coord for coord in all_coords}
    uplinks = _attach_hosts(topo, lambda host: switch(all_coords[host]),
                            bandwidth, latency)
    for coord in all_coords:
        for nb in neighbors(coord):
            topo.add_link(switch(coord), switch(nb), bandwidth, latency)

    def toward(sname: str, dst: int) -> str:
        coord, goal = where[sname], all_coords[dst]
        for axis, n in enumerate(dims):
            if coord[axis] == goal[axis]:
                continue
            forward = (goal[axis] - coord[axis]) % n
            backward = (coord[axis] - goal[axis]) % n
            step = 1 if forward <= backward else n - 1
            nxt = list(coord)
            nxt[axis] = (coord[axis] + step) % n
            return switch(tuple(nxt))
        return host_vertex(dst)

    return _route_with(topo, uplinks, toward)
