"""Graph-communication proxy (Vite-style community detection, Lesson 5).

Vite runs Louvain community detection on a distributed graph: every
iteration, each thread sends community-update messages to the owners of
its vertices' remote neighbours. Crucially, the *communication
neighbourhood changes over time* — as vertices change communities, a
thread suddenly talks to different threads on different processes.

That dynamism is exactly what breaks static communicator maps (Lesson 5):
a pre-built thread-to-communicator map assumes fixed partners; once
partners change, two threads start sharing communicators (serialization),
or the map must be rebuilt collectively (expensive). Endpoints simply
address the new partner's endpoint rank; tags-with-hints simply encode the
new partner's thread id.

The proxy partitions a Barabási–Albert power-law graph, built in-repo by
:func:`barabasi_albert`, runs ``iters`` update rounds with community
reassignment between rounds (changing the partner sets), and measures
exchange time plus — for the communicator mechanism — the label-sharing
conflicts the dynamism induces.
"""

from __future__ import annotations

import math
import random  # lint: ignore[L201] -- only a seeded random.Random(seed) instance
from dataclasses import dataclass
from typing import Generator, Iterator, KeysView, Optional

import numpy as np

from ...errors import MpiUsageError
from ...mapping.tags import TagSchema, listing2_info
from ...mpi.endpoints import comm_create_endpoints
from ...mpi.request import waitall
from ...netsim.config import NetworkConfig
from ...runtime.world import MpiProcess, World
from ..chaos import TrafficShape, chaos_cluster, install_traffic

__all__ = ["GraphConfig", "GraphResult", "Graph", "barabasi_albert",
           "run_graph", "partition_graph"]

MECHANISMS = ("original", "tags", "communicators", "endpoints")


@dataclass
class GraphConfig:
    """Parameters for the Vite-style graph community-detection proxy."""

    num_nodes: int = 4
    threads_per_proc: int = 4
    #: Vertices in the generated power-law graph.
    graph_vertices: int = 256
    #: Attachment parameter of the Barabasi-Albert generator.
    graph_degree: int = 4
    iters: int = 3
    mechanism: str = "endpoints"
    #: Fraction of vertices whose ownership thread re-randomizes each
    #: iteration (the dynamic-neighbourhood knob).
    churn: float = 0.3
    update_cost: float = 100e-9
    seed: int = 0

    def __post_init__(self):
        if self.mechanism not in MECHANISMS:
            raise MpiUsageError(f"unknown mechanism {self.mechanism!r}")
        if not 0.0 <= self.churn <= 1.0:
            raise MpiUsageError("churn must be in [0, 1]")
        if not 1 <= self.graph_degree < self.graph_vertices:
            raise MpiUsageError(
                f"graph_degree must be in [1, graph_vertices), got "
                f"graph_degree={self.graph_degree}, "
                f"graph_vertices={self.graph_vertices}")


@dataclass
class GraphResult:
    """Timing and message-volume summary of one graph-proxy run."""

    cfg: GraphConfig
    wall_time: float
    exchange_time: float
    #: Messages exchanged across processes over the whole run.
    remote_messages: int
    #: communicators mechanism only: worst per-iteration count of comms
    #: that carried traffic of >= 2 local threads (the Lesson 5
    #: serialization induced by changing neighbourhoods).
    comm_conflicts: int
    correct: bool

    def __str__(self) -> str:
        return (f"{self.cfg.mechanism:14s} wall={self.wall_time * 1e6:9.1f}us "
                f"exch={self.exchange_time * 1e6:9.1f}us "
                f"msgs={self.remote_messages:5d} "
                f"conflicts={self.comm_conflicts}")


class Graph(dict[int, list[int]]):
    """Undirected graph as insertion-ordered adjacency lists."""

    @property
    def nodes(self) -> KeysView[int]:
        """The vertices, in insertion order."""
        return self.keys()

    def neighbors(self, v: int) -> Iterator[int]:
        """``v``'s neighbours, in edge-insertion order."""
        return iter(self[v])


def barabasi_albert(n: int, m: int, seed: int) -> Graph:
    """Barabási–Albert preferential attachment: ``n`` vertices, each new
    one attached to ``m`` distinct existing ones drawn by degree.

    The classic construction, step for step: a star on ``m + 1``
    vertices, then each new vertex draws ``m`` distinct targets from a
    list holding every vertex once per incident edge. The vertex order
    and every neighbour order fix the proxy's message issue order, so
    they are pinned by tests.
    """
    if not 1 <= m < n:
        raise MpiUsageError(f"Barabási–Albert needs 1 <= m < n, "
                            f"got m={m}, n={n}")
    rng = random.Random(seed)
    # A star on m+1 vertices with hub 0 ...
    g = Graph({0: list(range(1, m + 1))})
    g.update((v, [0]) for v in range(1, m + 1))
    # ... and every vertex repeated once per incident edge.
    repeated = [0] * m + list(range(1, m + 1))
    for source in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(rng.choice(repeated))
        g[source] = list(targets)
        for t in targets:
            g[t].append(source)
        repeated.extend(targets)
        repeated.extend([source] * m)
    return g


def partition_graph(cfg: GraphConfig) -> tuple[Graph, dict[int, tuple[int, int]]]:
    """Generate the graph and the initial vertex -> (proc, thread) owner map."""
    g = barabasi_albert(cfg.graph_vertices, cfg.graph_degree, cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    owners = {}
    total_threads = cfg.num_nodes * cfg.threads_per_proc
    for v in g.nodes:
        slot = int(rng.integers(total_threads))
        owners[v] = (slot // cfg.threads_per_proc,
                     slot % cfg.threads_per_proc)
    return g, owners


class _GraphNode:
    def __init__(self, proc: MpiProcess, cfg: GraphConfig,
                 graph: Graph, owners: dict):
        self.proc = proc
        self.cfg = cfg
        self.graph = graph
        self.owners = owners  # shared, mutated between iterations
        self.task_comms = []
        self.eps = None
        bits = max(1, math.ceil(math.log2(max(2, cfg.threads_per_proc))))
        self.schema = TagSchema(num_tid_bits=bits, num_app_bits=6)
        self.tag_comm = None
        self.updates_applied = 0
        self.checksum = 0.0
        self.exchange_time = 0.0
        self._exchange_accum: dict[int, float] = {}
        self.remote_messages = 0
        self.conflicts = 0

    def setup(self) -> Generator:
        cfg = self.cfg
        if cfg.mechanism == "communicators":
            # A static map: one communicator per local thread id — built
            # once, before the neighbourhood starts drifting (Lesson 5).
            for tid in range(cfg.threads_per_proc):
                self.task_comms.append(
                    (yield from self.proc.comm_world.Dup(name=f"g{tid}")))
        elif cfg.mechanism == "endpoints":
            self.eps = yield from comm_create_endpoints(
                self.proc.comm_world, cfg.threads_per_proc)
        elif cfg.mechanism == "tags":
            self.tag_comm = yield from self.proc.comm_world.Dup(
                listing2_info(cfg.threads_per_proc,
                              self.schema.num_tid_bits))
        else:
            self.tag_comm = self.proc.comm_world

    # -- per-iteration partner computation -------------------------------
    def partners(self, tid: int, it: int) -> dict[tuple[int, int], int]:
        """(proc, thread) -> number of updates to send this iteration."""
        out: dict[tuple[int, int], int] = {}
        me = (self.proc.rank, tid)
        for v, owner in self.owners.items():
            if owner != me:
                continue
            for nbr in self.graph.neighbors(v):
                o = self.owners[nbr]
                if o[0] != self.proc.rank:
                    out[o] = out.get(o, 0) + 1
        return out

    def incoming(self, tid: int) -> dict[tuple[int, int], int]:
        """Who will message (me, tid) this iteration."""
        out: dict[tuple[int, int], int] = {}
        me = (self.proc.rank, tid)
        for v, owner in self.owners.items():
            if owner[0] == self.proc.rank:
                continue
            for nbr in self.graph.neighbors(v):
                if self.owners[nbr] == me:
                    out[owner] = out.get(owner, 0) + 1
        # collapse: one message per (sender proc, sender thread)
        return out

    # -- mechanism-specific send/recv -------------------------------------
    def _send(self, tid: int, p2: int, t2: int, it: int,
              payload: np.ndarray) -> Generator:
        cfg = self.cfg
        if cfg.mechanism == "communicators":
            # Static map: sender uses its own thread's communicator; the
            # receiver must know which comm each dynamic partner uses —
            # and distinct remote partners may share it (conflicts).
            comm = self.task_comms[tid]
            return (yield from comm.Isend(payload, p2, tag=it))
        if cfg.mechanism == "endpoints":
            ep = self.eps[tid]
            target = p2 * cfg.threads_per_proc + t2
            return (yield from ep.Isend(payload, target, tag=it))
        tag = self.schema.encode(tid, t2, it % 64)
        return (yield from self.tag_comm.Isend(payload, p2, tag))

    def _recv(self, tid: int, p2: int, t2: int, it: int,
              buf: np.ndarray) -> Generator:
        cfg = self.cfg
        if cfg.mechanism == "communicators":
            comm = self.task_comms[t2]  # the sender's thread comm
            return (yield from comm.Irecv(buf, p2, tag=it))
        if cfg.mechanism == "endpoints":
            ep = self.eps[tid]
            source = p2 * cfg.threads_per_proc + t2
            return (yield from ep.Irecv(buf, source, tag=it))
        tag = self.schema.encode(t2, tid, it % 64)
        return (yield from self.tag_comm.Irecv(buf, p2, tag))

    def run_one(self, tid: int, it: int, barrier) -> Generator:
        """One iteration of one thread: exchange updates with the current
        (possibly churned) partner set, then apply them."""
        cfg, proc = self.cfg, self.proc
        payload = np.zeros(2)
        sends = self.partners(tid, it)
        expect = self.incoming(tid)
        t0 = proc.sim.now
        reqs, rbufs = [], []
        for (p2, t2), _count in sorted(expect.items()):
            buf = np.zeros(2)
            req = yield from self._recv(tid, p2, t2, it, buf)
            reqs.append(req)
            rbufs.append(buf)
        for (p2, t2), count in sorted(sends.items()):
            payload[0] = proc.rank * 1000 + tid
            payload[1] = count
            self.remote_messages += 1
            req = yield from self._send(tid, p2, t2, it, payload)
            reqs.append(req)
        yield from waitall(reqs)
        for buf in rbufs:
            self.updates_applied += 1
            self.checksum += buf[0]
            yield proc.compute(cfg.update_cost * max(1.0, buf[1]))
        self._exchange_accum[tid] = self._exchange_accum.get(tid, 0.0) \
            + proc.sim.now - t0
        yield from barrier.wait()

    def measure_conflicts(self, it: int) -> None:
        """Count communicators serving >= 2 local threads this iteration
        (receive side of the static map under churn)."""
        if self.cfg.mechanism != "communicators":
            return
        users: dict[int, set[int]] = {}
        for tid in range(self.cfg.threads_per_proc):
            for (p2, t2) in self.incoming(tid):
                users.setdefault(t2, set()).add(tid)
        self.conflicts = max(self.conflicts,
                             sum(1 for s in users.values() if len(s) > 1))


def run_graph(cfg: GraphConfig,
              net: Optional[NetworkConfig] = None,
              max_vcis_per_proc: int = 64,
              faults=None, transport=None,
              traffic: Optional[TrafficShape] = None,
              traffic_seed: int = 0,
              topology: str = "direct",
              topology_params: Optional[dict] = None) -> GraphResult:
    """Run the graph proxy under the configured mechanism.

    The trailing keywords are the shared chaos block (see
    :mod:`repro.apps.chaos`); defaults reproduce the historical lossless
    direct-fabric run byte for byte.
    """
    from ...sim.sync import Barrier

    graph, owners = partition_graph(cfg)
    world = World(cluster=chaos_cluster(cfg.num_nodes, cfg.threads_per_proc,
                                        net, topology, topology_params),
                  max_vcis_per_proc=max_vcis_per_proc, seed=cfg.seed,
                  faults=faults, transport=transport)
    nodes: dict[int, _GraphNode] = {}
    rng = np.random.default_rng(cfg.seed + 1)

    # Precompute the per-iteration owner maps (the churn), shared by all
    # ranks — models the alltoall-style ownership refresh of Vite.
    owner_steps = [dict(owners)]
    total_threads = cfg.num_nodes * cfg.threads_per_proc
    for _ in range(cfg.iters - 1):
        new = dict(owner_steps[-1])
        for v in new:
            if rng.random() < cfg.churn:
                slot = int(rng.integers(total_threads))
                new[v] = (slot // cfg.threads_per_proc,
                          slot % cfg.threads_per_proc)
        owner_steps.append(new)

    def proc_main(proc):
        st = _GraphNode(proc, cfg, graph, dict(owner_steps[0]))
        nodes[proc.rank] = st
        yield from st.setup()
        barrier = Barrier(proc.sim, cfg.threads_per_proc)

        # Iteration-wise owner-map swap is driven per process: wrap the
        # per-thread body with a coordinator thread.
        def thread(tid):
            for it in range(cfg.iters):
                st.owners.clear()
                st.owners.update(owner_steps[it])
                st.measure_conflicts(it)
                yield from st.run_one(tid, it, barrier)

        threads = [proc.spawn(thread(tid))
                   for tid in range(cfg.threads_per_proc)]
        yield proc.sim.all_of(threads)
        return proc.sim.now


    tasks = [world.procs[r].spawn(proc_main(world.procs[r]))
             for r in range(cfg.num_nodes)]
    bg = install_traffic(world, traffic, traffic_seed)
    ends = world.run_all(tasks + bg, max_steps=None)[:len(tasks)]

    # correctness: total updates applied == total remote messages sent
    sent = sum(st.remote_messages for st in nodes.values())
    applied = sum(st.updates_applied for st in nodes.values())
    correct = sent == applied
    return GraphResult(
        cfg=cfg,
        wall_time=max(ends),
        exchange_time=max(max(st._exchange_accum.values(), default=0.0)
                          for st in nodes.values()),
        remote_messages=sent,
        comm_conflicts=max(st.conflicts for st in nodes.values()),
        correct=correct,
    )
