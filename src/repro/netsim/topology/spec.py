"""Declarative cluster description: ``ClusterSpec`` and the topology registry.

The redesigned construction API::

    from repro import ClusterSpec, NetworkConfig, World

    world = World(cluster=ClusterSpec(
        nodes=16, threads_per_proc=4,
        topology="fat_tree", k=4,
        network=NetworkConfig.omnipath()))

``topology`` resolves through a small registry protocol: a *builder* is
any callable ``builder(nodes, params, **kwargs) -> Topology | None``
registered under a name with :func:`register_topology`. ``None`` means
"no link graph" — the World then uses the legacy single-hop
:class:`~repro.netsim.fabric.Fabric`, which is exactly what the built-in
``direct`` topology returns (hence byte-identical timing with the old
``World(cfg=...)`` path). The built-ins cover ``direct``, ``fat_tree``,
``dragonfly``, and ``torus``; applications may register their own.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Protocol

from ...errors import TopologyError
from ..config import FabricParams, NetworkConfig
from .generators import dragonfly, fat_tree, torus
from .graph import Topology

__all__ = ["ClusterSpec", "TopologyBuilder", "register_topology",
           "topology_names"]


class TopologyBuilder(Protocol):
    """The registry protocol: build a topology for ``nodes`` hosts.

    ``params`` carries the fabric's default per-hop pricing; builders may
    ignore it (links priced ``None`` inherit it at bind time anyway).
    Returning ``None`` selects the legacy single-hop fabric.
    """

    def __call__(self, nodes: int, params: FabricParams,
                 **kwargs: Any) -> Optional[Topology]:
        ...


_REGISTRY: dict[str, TopologyBuilder] = {}


def register_topology(name: str, builder: TopologyBuilder) -> None:
    """Register ``builder`` under ``name`` (overwrites earlier bindings)."""
    if not name or not isinstance(name, str):
        raise TopologyError(f"topology name must be a non-empty string: {name!r}")
    _REGISTRY[name] = builder


def topology_names() -> tuple[str, ...]:
    """All registered topology names, sorted."""
    return tuple(sorted(_REGISTRY))


def _build_direct(nodes: int, params: FabricParams,
                  **kwargs: Any) -> Optional[Topology]:
    """The legacy single-hop fabric (no link graph)."""
    if kwargs:
        raise TopologyError(
            f"direct topology takes no parameters, got {sorted(kwargs)}")
    return None


def _build_fat_tree(nodes: int, params: FabricParams, k: int = 4,
                    **kwargs: Any) -> Topology:
    """``fat_tree(k)`` — capacity ``k**3/4`` hosts."""
    return fat_tree(k, **kwargs)


def _build_dragonfly(nodes: int, params: FabricParams, a: int = 4,
                     p: int = 2, h: int = 2, **kwargs: Any) -> Topology:
    """``dragonfly(a, p, h)`` — capacity ``(a*h+1)*a*p`` hosts."""
    return dragonfly(a, p, h, **kwargs)


def _build_torus(nodes: int, params: FabricParams,
                 dims: tuple[int, ...] = (4, 4), **kwargs: Any) -> Topology:
    """``torus(dims)`` — capacity ``prod(dims)`` hosts."""
    return torus(dims, **kwargs)


register_topology("direct", _build_direct)
register_topology("fat_tree", _build_fat_tree)
register_topology("dragonfly", _build_dragonfly)
register_topology("torus", _build_torus)


class ClusterSpec:
    """A declarative description of the simulated machine.

    Bundles the cluster's shape (``nodes``, ``procs_per_node``,
    ``threads_per_proc``), its interconnect (``topology`` name plus
    topology parameters such as ``k=4`` or ``dims=(4, 4)``), and the
    network pricing (``network``, a
    :class:`~repro.netsim.config.NetworkConfig`). Topology parameters
    are validated eagerly — an unknown name or an undersized topology
    fails at spec construction, not mid-run. That builds only switches
    and links; a route is computed when a run first uses it.

    One spec builds one world: the topology object carries per-link
    queue state once bound, so :meth:`build_topology` returns a fresh
    graph on every call.
    """

    def __init__(self, nodes: int = 2, procs_per_node: int = 1,
                 threads_per_proc: int = 1, topology: str = "direct",
                 network: Optional[NetworkConfig] = None,
                 **params: Any):
        if nodes < 1 or procs_per_node < 1 or threads_per_proc < 1:
            raise TopologyError("cluster dimensions must be positive")
        if topology not in _REGISTRY:
            raise TopologyError(
                f"unknown topology {topology!r}; registered: "
                f"{', '.join(topology_names())}")
        self.nodes = nodes
        self.procs_per_node = procs_per_node
        self.threads_per_proc = threads_per_proc
        self.topology = topology
        self.network = network or NetworkConfig()
        self.params = dict(params)
        # Fail fast: building the graph (O(links); routes stay lazy)
        # validates the generator parameters and capacity vs `nodes`.
        self.build_topology()

    def build_topology(self) -> Optional[Topology]:
        """Build a fresh, unbound topology graph (``None`` for direct)."""
        builder = _REGISTRY[self.topology]
        try:
            topo = builder(self.nodes, self.network.fabric, **self.params)
        except TypeError as exc:
            raise TopologyError(
                f"bad parameters for topology {self.topology!r}: {exc}"
            ) from None
        if topo is not None and topo.num_hosts < self.nodes:
            raise TopologyError(
                f"{topo.name} has {topo.num_hosts} host ports, cannot "
                f"place {self.nodes} nodes")
        return topo

    def describe(self) -> str:
        """One-line human summary of the spec."""
        extra = "".join(f", {k}={v!r}" for k, v in sorted(self.params.items()))
        return (f"ClusterSpec(nodes={self.nodes}, "
                f"procs_per_node={self.procs_per_node}, "
                f"threads_per_proc={self.threads_per_proc}, "
                f"topology={self.topology!r}{extra}, "
                f"network={self.network.name!r})")

    def __repr__(self) -> str:
        return self.describe()
