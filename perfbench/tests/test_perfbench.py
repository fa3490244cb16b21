"""Self-tests of the benchmark: exact counts repeat, a deliberately slowed
layer is the one the per-layer report blames, and the reference checks
catch wrong outputs.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import time
from itertools import islice

import pytest

from harness.layers import (PER_LAYER_METRICS, Tally, exact_counts, install,
                            layer_self_ms)
from harness.trace import SpanRecorder
from harness import workloads
from harness.workloads import WORKLOADS, serve_jobs

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def traced_run(name: str, count: int, seed: int = 1):
    """One fixed-size traced run; returns (recorder, tally, result)."""
    wl = WORKLOADS[name](ROOT)
    state = wl.setup(seed)
    rec, tally = SpanRecorder(), Tally()
    patcher = install(rec, tally)
    try:
        res = wl.run(state, count=count)
    finally:
        patcher.restore()
    wl.check(state, res, detail=False)
    wl.teardown(state)
    return rec, tally, res


def test_counts_repeat_exactly_and_outputs_stay_correct():
    a_rec, a_tally, a_res = traced_run("msgrate", 1)
    b_rec, b_tally, b_res = traced_run("msgrate", 1)
    assert a_res.failed == b_res.failed == 0
    assert exact_counts(a_rec, a_tally) == exact_counts(b_rec, b_tally)
    assert a_tally.sim_steps > a_res.msgs > 0


def test_campaign_counts_repeat_exactly():
    a_rec, a_tally, a_res = traced_run("campaign", 6)
    b_rec, b_tally, b_res = traced_run("campaign", 6)
    assert a_res.failed == b_res.failed == 0
    assert exact_counts(a_rec, a_tally) == exact_counts(b_rec, b_tally)


def _busy_wait(ns: int) -> None:
    end = time.perf_counter_ns() + ns
    while time.perf_counter_ns() < end:
        pass


@pytest.fixture
def slowed(monkeypatch):
    """Slow one wrapped entry point by a fixed 40 us per call."""
    def slow(owner, attr):
        original = owner.__dict__[attr]

        def slowed_fn(*args, **kwargs):
            _busy_wait(40_000)
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, attr, slowed_fn)
    return slow


@pytest.mark.parametrize("layer,target", [
    ("netsim", ("repro.netsim.fabric", "Fabric", "transmit")),
    ("mpi.matching", ("repro.mpi.matching", "MatchingEngine", "incoming")),
])
def test_slowed_layer_is_named(slowed, layer, target):
    import importlib
    base_rec, base_tally, _ = traced_run("msgrate", 1)
    module, cls, attr = target
    slowed(getattr(importlib.import_module(module), cls), attr)
    slow_rec, slow_tally, slow_res = traced_run("msgrate", 1)
    assert slow_res.failed == 0

    before, after = layer_self_ms(base_rec), layer_self_ms(slow_rec)
    growth = {name: after[name] - before.get(name, 0.0) for name in after}
    assert max(growth, key=growth.get) == layer
    # Only host time moved: every count of every layer is unchanged.
    assert exact_counts(base_rec, base_tally) == \
        exact_counts(slow_rec, slow_tally)


def test_reference_mismatch_counts_as_failed():
    wl = WORKLOADS["msgrate"](ROOT)
    wl.reference["msgrate"]["threads-tags"]["span"] *= 1.0 + 1e-12
    res = wl.run(wl.setup(1), count=1)
    assert (res.attempted, res.failed) == (5, 1)

    wl = WORKLOADS["campaign"](ROOT)
    state = wl.setup(1)
    res = wl.run(state, count=2)
    wl.reference["campaign"]["outcomes"] = ["0" * 64] * 256
    wl.check(state, res, detail=False)
    assert (res.attempted, res.failed) == (2, 2)


def test_campaign_passes_cover_the_whole_pool():
    wl = WORKLOADS["campaign"](ROOT)
    a, b = wl.setup(1), wl.setup(2)
    size = len(a["pool"])
    assert sorted(wl.order(a, 0)) == sorted(wl.order(b, 3)) == \
        list(range(size))
    assert wl.order(a, 0) == wl.order(wl.setup(1), 0) != wl.order(b, 0)


def test_pauses_are_off_the_clock(monkeypatch):
    monkeypatch.setattr(workloads, "MIN_SAMPLES", 0)
    wl = WORKLOADS["msgrate"](ROOT)
    pauses = []

    def pause(elapsed: float) -> None:
        pauses.append(elapsed)
        time.sleep(0.3)

    t0 = time.perf_counter()
    res = wl.run(wl.setup(1), seconds=0.01, pause=pause)
    total = time.perf_counter() - t0
    assert (res.attempted, res.failed, len(pauses)) == (5, 0, 1)
    assert res.wall_s <= total - 0.3


def test_serve_jobs_repeat_two_thirds_from_the_seed():
    jobs = list(islice(serve_jobs(7), 600))
    assert jobs == list(islice(serve_jobs(7), 600))
    seeds = [job["params"]["seed"] for job in jobs]
    repeats = len(seeds) - len(set(seeds))
    assert 0.6 < repeats / len(jobs) < 0.73
    first = {}
    for job in jobs:  # a repeat is its original job, point for point
        assert first.setdefault(job["params"]["seed"], job) == job


def test_benchmark_json_matches_the_metrics_printed():
    import run
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        list(PER_LAYER_METRICS)
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
