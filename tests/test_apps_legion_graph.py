"""Tests for the Legion event-runtime / circuit and graph proxies."""

import hashlib
import json

import pytest

from repro.apps.graph import GraphConfig, partition_graph, run_graph
from repro.apps.graph.vite import barabasi_albert
from repro.apps.legion import (
    CircuitConfig,
    LegionConfig,
    run_circuit,
    run_legion,
)
from repro.errors import MpiUsageError


# ---------------------------------------------------------------- legion

@pytest.mark.parametrize("mechanism", ["original", "communicators",
                                       "endpoints"])
def test_legion_all_events_processed(mechanism):
    cfg = LegionConfig(num_nodes=3, task_threads=4, msgs_per_thread=6,
                       mechanism=mechanism)
    r = run_legion(cfg)
    assert r.correct
    assert r.polling_rate > 0


def test_legion_partitioned_rejected():
    """Lesson 15: wildcard polling cannot be expressed with partitions."""
    with pytest.raises(MpiUsageError, match="Lesson 15"):
        LegionConfig(mechanism="partitioned")


def test_legion_needs_two_nodes():
    with pytest.raises(MpiUsageError):
        LegionConfig(num_nodes=1)


def test_fig5_polling_cost_grows_with_communicators():
    """Fig 5 / Lesson 5: the polling thread pays more per event when it
    must iterate over the task threads' communicators (paper: 1.63x)."""
    base = dict(num_nodes=3, task_threads=8, msgs_per_thread=10)
    r_comm = run_legion(LegionConfig(mechanism="communicators", **base))
    r_ep = run_legion(LegionConfig(mechanism="endpoints", **base))
    ratio = r_comm.polling_cost_per_event / r_ep.polling_cost_per_event
    assert 1.2 < ratio < 2.5
    assert r_comm.probes_per_event > 1.5 * r_ep.probes_per_event


def test_fig5_ratio_grows_with_thread_count():
    """More task threads -> more communicators to iterate -> worse."""
    def ratio(nthreads):
        # Scale the per-thread think time with the thread count so the
        # aggregate event rate at the polling thread stays constant.
        base = dict(num_nodes=3, task_threads=nthreads, msgs_per_thread=10,
                    task_work=1.25e-6 * nthreads * 2)
        r_comm = run_legion(LegionConfig(mechanism="communicators", **base))
        r_ep = run_legion(LegionConfig(mechanism="endpoints", **base))
        return r_comm.polling_cost_per_event / r_ep.polling_cost_per_event

    assert ratio(12) > ratio(3)


# ---------------------------------------------------------------- circuit

@pytest.mark.parametrize("mechanism", ["original", "communicators",
                                       "endpoints"])
def test_circuit_correct(mechanism):
    cfg = CircuitConfig(num_nodes=3, task_threads=4, timesteps=3,
                        wires_per_thread=4, mechanism=mechanism)
    assert run_circuit(cfg).correct


def test_fig1c_original_slower():
    base = dict(num_nodes=3, task_threads=8, timesteps=4,
                wires_per_thread=16, compute_per_step=1e-6)
    t_orig = run_circuit(CircuitConfig(mechanism="original", **base))
    t_ep = run_circuit(CircuitConfig(mechanism="endpoints", **base))
    assert t_orig.time_per_step > 1.1 * t_ep.time_per_step


def test_circuit_deterministic():
    cfg = CircuitConfig(num_nodes=2, task_threads=3, timesteps=2,
                        mechanism="endpoints")
    assert run_circuit(cfg).wall_time == run_circuit(cfg).wall_time


# ---------------------------------------------------------------- graph

def test_partition_graph_covers_all_vertices():
    cfg = GraphConfig(graph_vertices=64, num_nodes=2, threads_per_proc=2)
    g, owners = partition_graph(cfg)
    assert set(owners) == set(g.nodes)
    assert all(0 <= p < 2 and 0 <= t < 2 for p, t in owners.values())


@pytest.mark.parametrize("mechanism", ["original", "tags", "communicators",
                                       "endpoints"])
def test_graph_all_updates_delivered(mechanism):
    cfg = GraphConfig(num_nodes=3, threads_per_proc=3, graph_vertices=90,
                      iters=3, mechanism=mechanism)
    r = run_graph(cfg)
    assert r.correct
    assert r.remote_messages > 0


def test_graph_churn_validation():
    with pytest.raises(MpiUsageError):
        GraphConfig(churn=1.5)


@pytest.mark.parametrize("vertices,degree", [(8, 0), (8, -1), (8, 8),
                                             (8, 9), (1, 1)])
def test_graph_degree_validation(vertices, degree):
    with pytest.raises(MpiUsageError, match="graph_degree"):
        GraphConfig(graph_vertices=vertices, graph_degree=degree)
    with pytest.raises(MpiUsageError, match="1 <= m < n"):
        barabasi_albert(vertices, degree, seed=0)


def test_bad_graph_degree_fails_at_scenario_construction():
    from repro.errors import ScenarioError
    from repro.scenarios import ScenarioSpec
    with pytest.raises(ScenarioError, match="graph_degree"):
        ScenarioSpec(app="graph", mechanism="endpoints",
                     app_params={"graph_vertices": 16, "graph_degree": 16})


#: sha256 of ``json.dumps([nodes, [neighbours of each node]])`` for
#: networkx 3.x's ``barabasi_albert_graph(n, m, seed=seed)``: the
#: scenario sampler's sizes (24/48/64 vertices, degree 4), the
#: shrinker's floor (16, 2) and a few other shapes. Message issue order
#: follows neighbour order, so the in-repo generator must match exactly.
BA_REFERENCE = {
    (24, 4, 0): "503eec3f30590e848c2a8c17f0670c3d8db7a294821e0b5870d3956eef6da973",
    (24, 4, 1): "96263fce05d69de1ec9c79c36e5f946266a12d2669f88c1adce7e199d76c52ae",
    (24, 4, 7): "f215069d9ba41083092c41e6417415afddcea2350d27d329073bee5e6d808f4f",
    (24, 4, 2022): "fb252cc6ffe797b1e6a0b1f355fc2adb95b32106bf1d5c969dbc0735838fca19",
    (48, 4, 0): "20d7cf6b7f094e055e415c152765d307c622f23d7f81536d437d22e08fcc5727",
    (48, 4, 3): "a3cae776843038332d505664bfd50947850bbebee81f4787a8f1e541913ba5ee",
    (48, 4, 11): "74492819f3c7c75244d883ef9ee3c74c2b6bedd66d2281c4a79b1116843d9489",
    (64, 4, 0): "0a5a4b9a40322450c5d98470c6e175e9eb6538457549a3c8cfa255af15d8f063",
    (64, 4, 5): "14a35cd26d7d903b079f5fa1166d6e5afc218ee98a496f72778d0106b9af3fdb",
    (64, 4, 20221): "2b94ea4baab5dc16a98d3b88c7c87f1318c0aef9230244f942f76e60d30620c0",
    (16, 2, 0): "dd6144ce4db0b93db99fbb348b75831e0c678c463668256ac49ad2a45c4c229f",
    (16, 2, 1): "e1841f4042dcac97f3d0e96d8f787f8f0207dc94d3870451c3b5233c6068bc22",
    (16, 2, 9): "42daa89679471421268b3ee5c9ce8c0134dbe0db313546e24401870962b24073",
    (256, 4, 0): "f252b595e483a862eadd89a5319cebcb51bc8e3236a61d1b7c3f2cdfe7ecb529",
    (100, 1, 3): "6de1d3df558649009c868af54d8fee8cc42253590d3bfe12f3dd94bbd92bbf37",
    (40, 6, 2): "e1b9a95a1bd8ba070f5f5c187fc9eb77356a6ae5c1df1caae3c117475cecfcd6",
    (33, 3, 8): "02490c0b1fbb071aeea414de26d4fcdd3ce2c0ebe3c903cb58653130b0793d25",
    (5, 4, 1): "61000b2abe7d064a78aa72f3977a37086566750b8f373f2df7866d3f85eebd0b",
}


@pytest.mark.parametrize("n,m,seed", sorted(BA_REFERENCE))
def test_barabasi_albert_matches_networkx_reference(n, m, seed):
    g = barabasi_albert(n, m, seed)
    nodes = list(g.nodes)
    doc = json.dumps([nodes, [list(g.neighbors(v)) for v in nodes]])
    assert hashlib.sha256(doc.encode()).hexdigest() == \
        BA_REFERENCE[n, m, seed]
    assert nodes == list(range(n))
    assert sum(map(len, g.values())) == 2 * m * (n - m)


def test_lesson5_churn_causes_communicator_conflicts():
    """Dynamic neighbourhoods make distinct local threads share static
    communicators (Lesson 5); endpoints never conflict."""
    base = dict(num_nodes=3, threads_per_proc=4, graph_vertices=120,
                iters=4, churn=0.5)
    r_comm = run_graph(GraphConfig(mechanism="communicators", **base))
    r_ep = run_graph(GraphConfig(mechanism="endpoints", **base))
    assert r_comm.comm_conflicts > 0
    assert r_ep.comm_conflicts == 0


def test_graph_zero_churn_static_pattern():
    cfg = GraphConfig(num_nodes=2, threads_per_proc=2, graph_vertices=40,
                      iters=2, churn=0.0, mechanism="tags")
    assert run_graph(cfg).correct
