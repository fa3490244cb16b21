"""Unit + property tests for repro.netsim.topology: ClusterSpec, the
generators, routing, the RoutedFabric, per-communicator collective
algorithm selection, and byte-identity of the ``direct`` topology with
the legacy single-hop fabric."""

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import InvalidHintError, MpiUsageError, TopologyError
from repro.mpi.coll.select import COLL_ALGORITHMS, validate_selection
from repro.mpi.info import Info, parse_comm_hints
from repro.netsim import (
    ClusterSpec,
    NetworkConfig,
    Topology,
    dragonfly,
    fat_tree,
    host_vertex,
    register_topology,
    topology_names,
    torus,
)
from repro.obs import MetricsRegistry, Tracer
from repro.runtime import World
from repro.snap import (
    capture_state,
    load_snapshot,
    restore_snapshot,
    save_snapshot,
    state_digest,
    take_snapshot,
)

SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def crisscross_world(make_world, nmsg=6, elems=512):
    """A fig1a-style workload: threads exchange tagged messages across
    two nodes, exercising eager + rendezvous and both fabric directions."""
    w = make_world()

    def node(proc):
        peer = 1 - proc.rank

        def thread(tid):
            out = np.full(elems, float(proc.rank * 10 + tid))
            buf = np.zeros(elems)
            for i in range(nmsg):
                rreq = yield from proc.comm_world.Irecv(buf, peer, tag=tid)
                sreq = yield from proc.comm_world.Isend(out, peer, tag=tid)
                yield from rreq.wait()
                yield from sreq.wait()

        yield proc.sim.all_of([proc.spawn(thread(t)) for t in range(3)])

    w.run_all([p.spawn(node(p)) for p in w.procs])
    return w


# ----------------------------------------------------- golden identity

def test_direct_topology_byte_identical_to_legacy_fabric():
    """Acceptance: equal state digests on the fig1a-style workload."""
    net = NetworkConfig.omnipath()

    def legacy():
        with pytest.warns(DeprecationWarning, match="World.cfg"):
            return World(num_nodes=2, procs_per_node=1, threads_per_proc=3,
                         cfg=net, seed=3)

    def direct():
        return World(cluster=ClusterSpec(nodes=2, threads_per_proc=3,
                                         topology="direct", network=net),
                     seed=3)

    d_legacy = state_digest(capture_state(crisscross_world(legacy)))
    d_direct = state_digest(capture_state(crisscross_world(direct)))
    assert d_legacy == d_direct


def test_routed_topology_changes_timing_not_results():
    def fat():
        return World(cluster=ClusterSpec(nodes=2, topology="fat_tree", k=4,
                                         threads_per_proc=3), seed=3)

    def direct():
        return World(cluster=ClusterSpec(nodes=2, threads_per_proc=3),
                     seed=3)

    w_fat, w_direct = crisscross_world(fat), crisscross_world(direct)
    # multi-hop store-and-forward is strictly slower than single-hop
    assert w_fat.sim.now > w_direct.sim.now
    assert state_digest(capture_state(w_fat)) \
        != state_digest(capture_state(w_direct))


# -------------------------------------------------------- ClusterSpec

def test_cfg_shim_emits_deprecation_warning():
    with pytest.warns(DeprecationWarning, match="ClusterSpec"):
        w = World(num_nodes=2, procs_per_node=1, cfg=NetworkConfig())
    assert w.cluster.topology == "direct"
    assert w.topology is None


def test_cluster_and_cfg_are_mutually_exclusive():
    with pytest.raises(MpiUsageError, match="cluster"):
        World(cluster=ClusterSpec(nodes=2), cfg=NetworkConfig())


def test_cluster_and_explicit_dims_are_mutually_exclusive():
    with pytest.raises(MpiUsageError, match="ClusterSpec"):
        World(cluster=ClusterSpec(nodes=2), num_nodes=2)


def test_clusterspec_validates_eagerly():
    with pytest.raises(TopologyError, match="unknown topology"):
        ClusterSpec(nodes=2, topology="hypercube")
    with pytest.raises(TopologyError, match="even"):
        ClusterSpec(nodes=2, topology="fat_tree", k=3)
    with pytest.raises(TopologyError):
        ClusterSpec(nodes=64, topology="fat_tree", k=4)  # 16 hosts < 64
    with pytest.raises(TopologyError, match="positive"):
        ClusterSpec(nodes=0)
    with pytest.raises(TopologyError, match="parameters"):
        ClusterSpec(nodes=2, topology="direct", bogus=1)


def test_topology_registry_protocol():
    names = topology_names()
    assert {"direct", "fat_tree", "dragonfly", "torus"} <= set(names)

    def star(nodes, params, **kwargs):
        topo = Topology("star", num_hosts=nodes)
        topo.add_switch("hub")
        for h in range(nodes):
            a, b = topo.add_duplex(host_vertex(h), "hub")
            topo.set_next_hop("hub", h, b)
            for dst in range(nodes):
                if dst != h:
                    topo.set_next_hop(host_vertex(h), dst, a)
        topo.validate()
        return topo

    register_topology("star-test", star)
    assert "star-test" in topology_names()
    spec = ClusterSpec(nodes=3, topology="star-test")
    assert spec.build_topology().num_links == 6


# ----------------------------------------------------------- routing

def _route_properties(topo):
    """Every host pair routes: contiguous path, correct endpoints, and
    loop-freedom (route() raises TopologyError on a next-hop cycle)."""
    for src in range(topo.num_hosts):
        for dst in range(topo.num_hosts):
            if src == dst:
                continue
            path = topo.route(src, dst)
            assert path, (src, dst)
            assert path[0].src == host_vertex(src)
            assert path[-1].dst == host_vertex(dst)
            for a, b in zip(path, path[1:]):
                assert a.dst == b.src
            vertices = [path[0].src] + [link.dst for link in path]
            assert len(set(vertices)) == len(vertices), "routing loop"


@SETTINGS
@given(k=st.sampled_from([2, 4, 6]))
def test_fat_tree_routes_every_pair(k):
    topo = fat_tree(k)
    assert topo.num_hosts == k ** 3 // 4
    _route_properties(topo)


@SETTINGS
@given(a=st.integers(1, 3), p=st.integers(1, 2), h=st.integers(1, 2))
def test_dragonfly_routes_every_pair(a, p, h):
    topo = dragonfly(a, p, h)
    assert topo.num_hosts == a * p * (a * h + 1)
    _route_properties(topo)


@SETTINGS
@given(dims=st.lists(st.integers(2, 4), min_size=1, max_size=3))
def test_torus_routes_every_pair(dims):
    topo = torus(tuple(dims))
    assert topo.num_hosts == int(np.prod(dims))
    _route_properties(topo)


@pytest.mark.parametrize("topology,params,n", [
    ("fat_tree", {"k": 4}, 16),
    ("dragonfly", {"a": 2, "p": 2, "h": 1}, 12),
    ("torus", {"dims": (3, 3)}, 9),
], ids=["fat_tree", "dragonfly", "torus"])
def test_per_link_byte_conservation(topology, params, n):
    """After an all-pairs exchange, every switch forwards exactly the
    bytes it receives (messages originate/terminate only at hosts)."""
    w = World(cluster=ClusterSpec(nodes=n, topology=topology, **params),
              seed=1)

    def node(proc):
        def thread(dst):
            buf = np.zeros(64 + dst)
            rreq = yield from proc.comm_world.Irecv(buf, dst, tag=proc.rank)
            sreq = yield from proc.comm_world.Isend(
                np.full(64 + proc.rank, 1.0), dst, tag=dst)
            yield from rreq.wait()
            yield from sreq.wait()

        others = [d for d in range(n) if d != proc.rank]
        yield proc.sim.all_of([proc.spawn(thread(d)) for d in others])

    w.run_all([p.spawn(node(p)) for p in w.procs])

    hosts = {host_vertex(h) for h in range(n)}
    inflow: dict[str, int] = {}
    outflow: dict[str, int] = {}
    for link in w.topology.links():
        outflow[link.src] = outflow.get(link.src, 0) + link.bytes
        inflow[link.dst] = inflow.get(link.dst, 0) + link.bytes
    switches = set(inflow) | set(outflow)
    for sw in switches - hosts:
        assert inflow.get(sw, 0) == outflow.get(sw, 0), sw
    # something actually flowed
    assert sum(l.bytes for l in w.topology.links()) > 0


def test_route_errors_are_typed():
    topo = Topology("t", num_hosts=2)
    topo.add_switch("sw")
    with pytest.raises(TopologyError, match="out of range"):
        topo.route(0, 5)
    with pytest.raises(TopologyError, match="no next hop"):
        topo.route(0, 1)


#: sha256 of every generator route in ROUTE_GRID, recorded from the
#: eagerly tabulated routes the generators built before they switched to
#: lazy next-hop rules. Routes are simulated observables: any change here
#: changes link queueing, timings and state digests.
ROUTE_GRID_SHA256 = \
    "687b544f3d46a07a32fadec845cd940e4f9ed366ec64f9c2ccf3ff042ceb2099"
ROUTE_GRID = (
    [(fat_tree, (k,)) for k in (2, 4, 6)]
    + [(dragonfly, c) for c in ((4, 2, 2), (2, 1, 1), (3, 2, 1))]
    + [(torus, (d,)) for d in ((2, 2), (4, 4), (3, 3, 3), (5,), (1, 3))])


def test_generator_routes_are_pinned():
    digest = hashlib.sha256()
    for generator, args in ROUTE_GRID:
        topo = generator(*args)
        digest.update(f"{topo.name}\n".encode())
        for src in range(topo.num_hosts):
            for dst in range(topo.num_hosts):
                names = " ".join(link.name for link in topo.route(src, dst))
                digest.update(f"{src} {dst} {names}\n".encode())
    assert digest.hexdigest() == ROUTE_GRID_SHA256


def test_generator_routing_is_lazy(monkeypatch):
    """Building evaluates no next hop; one route evaluates one per hop."""
    calls = []
    install = Topology.set_next_hop_rule

    def counting(self, rule):
        install(self, lambda vertex, dst: calls.append(vertex) or
                rule(vertex, dst))

    monkeypatch.setattr(Topology, "set_next_hop_rule", counting)
    topo = dragonfly(4, 2, 2)
    assert topo.num_hosts == 72 and calls == []
    path = topo.route(0, 71)
    assert 0 < len(calls) <= len(path)
    evaluated = len(calls)
    assert topo.route(0, 71) is path and len(calls) == evaluated


def _line(n):
    """Hosts h0..h{n-1} on a chain of switches s0..s{n-1}, all duplex."""
    topo = Topology("line", num_hosts=n)
    for i in range(n):
        topo.add_switch(f"s{i}")
        topo.add_duplex(host_vertex(i), f"s{i}")
        if i:
            topo.add_duplex(f"s{i - 1}", f"s{i}")
    return topo


def test_rule_routing_errors_are_typed():
    topo = _line(3)
    topo.set_next_hop_rule(lambda vertex, dst: topo.link("s1", "s2"))
    with pytest.raises(TopologyError, match="must leave that vertex"):
        topo.route(0, 2)

    topo = _line(3)
    bounce = {"h0": "s0", "s0": "s1", "s1": "s0"}
    topo.set_next_hop_rule(
        lambda vertex, dst: topo.link(vertex, bounce[vertex]))
    with pytest.raises(TopologyError, match="routing loop"):
        topo.route(0, 2)

    # Overshoots to host 2 on the way to host 1: nothing routes onward.
    topo = _line(3)
    hops = {"h0": "s0", "s0": "s1", "s1": "s2", "s2": "h2"}
    topo.set_next_hop_rule(
        lambda vertex, dst: topo.link(vertex, hops[vertex])
        if vertex in hops else None)
    with pytest.raises(TopologyError, match="no next hop toward host 1 at 'h2'"):
        topo.route(0, 1)


def test_explicit_next_hop_overrides_rule():
    default = fat_tree(4).route(0, 15)
    up_agg = default[1].dst  # the D-mod-k up-port toward host 15
    detour = "p0.a1" if up_agg == "p0.a0" else "p0.a0"
    topo = fat_tree(4)
    topo.set_next_hop("p0.e0", 15, topo.link("p0.e0", detour))
    path = topo.route(0, 15)
    assert path[1].dst == detour and path[-1].dst == host_vertex(15)


# ---------------------------------------- per-comm algorithm selection

def run_allreduce(world, algorithm=None, info=None, elems=256):
    """Allreduce over all ranks on a Dup'd comm; returns (ok, wall)."""
    outs = {}

    def node(proc):
        comm = yield from proc.comm_world.Dup(info=info)
        if algorithm is not None:
            comm.set_coll_algorithm("allreduce", algorithm)
        data = np.full(elems, float(proc.rank + 1))
        out = np.zeros(elems)
        yield from comm.Allreduce(data, out)
        outs[proc.rank] = out
        comm.Free()

    world.run_all([p.spawn(node(p)) for p in world.procs])
    n = world.num_procs
    expected = np.full(elems, n * (n + 1) / 2)
    return all(np.allclose(o, expected) for o in outs.values()), \
        world.sim.now


def test_set_coll_algorithm_changes_schedule():
    mk = lambda: World(cluster=ClusterSpec(nodes=4), seed=5)
    ok_ring, t_ring = run_allreduce(mk(), "ring", elems=8192)
    ok_rd, t_rd = run_allreduce(mk(), "recursive_doubling", elems=8192)
    assert ok_ring and ok_rd
    assert t_ring != t_rd  # genuinely different algorithms ran


def test_coll_algorithm_info_hint_path():
    mk = lambda: World(cluster=ClusterSpec(nodes=4), seed=5)
    hint = Info({"repro_coll_allreduce": "ring"})
    ok_hint, t_hint = run_allreduce(mk(), info=hint, elems=8192)
    ok_ring, t_ring = run_allreduce(mk(), "ring", elems=8192)
    assert ok_hint and ok_ring
    assert t_hint == t_ring  # the hint selected the same schedule


def test_coll_algorithm_accessors_and_validation():
    w = World(cluster=ClusterSpec(nodes=2))
    comm = w.procs[0].comm_world
    assert comm.coll_algorithm("allreduce") == "auto"
    comm.set_coll_algorithm("allreduce", "ring")
    assert comm.coll_algorithm("allreduce") == "ring"
    comm.set_coll_algorithm("allreduce", "auto")
    assert comm.coll_algorithm("allreduce") == "auto"
    with pytest.raises(InvalidHintError, match="allreduce"):
        comm.set_coll_algorithm("allreduce", "quantum")
    with pytest.raises(InvalidHintError, match="unknown collective"):
        comm.set_coll_algorithm("allshuffle", "ring")


def test_coll_hint_parsing():
    hints = parse_comm_hints(Info({"repro_coll_allreduce": "RING"}))
    assert dict(hints.coll_algorithms) == {"allreduce": "ring"}
    with pytest.raises(InvalidHintError):
        parse_comm_hints(Info({"repro_coll_allreduce": "bogus"}))
    for op, algos in COLL_ALGORITHMS.items():
        for algo in algos + ("auto",):
            assert validate_selection(op, algo.upper()) == (op, algo)


def test_split_inherits_selection():
    w = World(cluster=ClusterSpec(nodes=2))
    seen = {}

    def node(proc):
        proc.comm_world.set_coll_algorithm("allreduce", "ring")
        sub = yield from proc.comm_world.Split(0, proc.rank)
        seen[proc.rank] = sub.coll_algorithm("allreduce")
        sub.Free()

    w.run_all([p.spawn(node(p)) for p in w.procs])
    assert set(seen.values()) == {"ring"}


# ------------------------------------------------- snapshot roundtrip

def fat_tree_world(seed=0):
    w = World(cluster=ClusterSpec(nodes=16, topology="fat_tree", k=4),
              seed=seed)

    def node(proc):
        peer = (proc.rank + 8) % 16
        out = np.full(1024, float(proc.rank))
        buf = np.zeros(1024)
        rreq = yield from proc.comm_world.Irecv(buf, peer, tag=0)
        sreq = yield from proc.comm_world.Isend(out, peer, tag=0)
        yield from rreq.wait()
        yield from sreq.wait()

    for p in w.procs:
        p.spawn(node(p))
    return w


def test_fat_tree_snapshot_roundtrip(tmp_path):
    """Satellite: digest/replay stay exact with a topology enabled."""
    w = fat_tree_world()
    w.sim.run_steps(100)
    snap = take_snapshot(w)
    assert snap.state["topology"] is not None
    assert snap.state["topology"]["name"] == "fat_tree(k=4)"
    assert any(l["bytes"] > 0
               for l in snap.state["topology"]["links"].values())

    path = save_snapshot(snap, tmp_path / "fat.json")
    loaded = load_snapshot(path)
    restored = restore_snapshot(loaded, fat_tree_world)
    assert restored.sim.steps == 100
    assert state_digest(capture_state(restored)) == snap.digest


def test_topology_state_distinguishes_link_traffic():
    w1, w2 = fat_tree_world(), fat_tree_world()
    w1.sim.run_steps(60)
    w2.sim.run_steps(61)
    assert state_digest(capture_state(w1)) \
        != state_digest(capture_state(w2))


# ----------------------------------------------------- observability

def test_link_metrics_and_traces_flow():
    metrics, tracer = MetricsRegistry(), Tracer()
    w = World(cluster=ClusterSpec(nodes=16, topology="fat_tree", k=4),
              seed=0, metrics=metrics, tracer=tracer)

    def node(proc):
        if proc.rank == 0:
            yield from proc.comm_world.Send(np.zeros(4096), dest=15, tag=0)
        elif proc.rank == 15:
            yield from proc.comm_world.Recv(np.zeros(4096), source=0, tag=0)

    w.run_all([p.spawn(node(p)) for p in w.procs])
    w.finalize_metrics()
    sample = metrics.snapshot()
    assert sample.get("topo.link.bytes"), "per-link gauges missing"
    assert sample.get("topo.link.queue_delay"), "queue-delay histogram missing"
    hops = [r for r in tracer.records
            if r.category.name == "topo.link.hop"]
    # 0 -> 15 crosses pods: host->edge->agg->core->agg->edge->host
    assert len(hops) >= 6
