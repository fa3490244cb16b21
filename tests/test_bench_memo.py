"""Warm-prefix memoization: simulate each prefix once, cache forever.

The contract has three parts: (1) memoized results equal the unmemoized
reference, cold or warm; (2) one warm-up simulation per unique prefix
within a run (every further point of the prefix is a fork); (3) a
repeated sweep against a warm cache directory re-simulates ZERO warm-ups
— the ISSUE's headline acceptance criterion — and the cache
self-invalidates when the memo format version changes.
"""

import json
import os

import pytest

from repro.bench.memo import (MEMO_VERSION, MemoStats, WarmPrefixExecutor,
                              fig1a_executor)
from repro.bench.msgrate import warm_msgrate
from repro.scenarios.executor import run_scenarios
from repro.scenarios.sample import sample_scenarios
from repro.snap import SNAP_VERSION, STATE_FORMAT_VERSION

POINTS = [{"mode": mode, "cores": 2, "msgs_per_core": mpc}
          for mode in ("everywhere", "threads-tags")
          for mpc in (8, 16, 24)]


def test_memo_version_tracks_snapshot_formats():
    assert f"snap{SNAP_VERSION}" in MEMO_VERSION
    assert f"state{STATE_FORMAT_VERSION}" in MEMO_VERSION


def test_fig1a_memo_matches_unmemoized_reference():
    results = fig1a_executor().run(POINTS)
    for point, result in zip(POINTS, results):
        warm = warm_msgrate(mode=point["mode"], cores=point["cores"])
        ref = warm.measure(point["msgs_per_core"])
        assert result["rate"] == ref.rate
        assert result["span"] == ref.span
        assert result["messages"] == ref.messages


def test_one_warmup_per_unique_prefix():
    stats = MemoStats()
    fig1a_executor().run(POINTS, stats=stats)
    assert stats.warmups_simulated == 2  # two (mode, cores) prefixes
    assert stats.warmup_reuses == 4     # remaining points forked off them
    assert stats.points_run == len(POINTS)
    assert len(stats.prefix_digests) == 2


def test_repeated_sweep_resimulates_zero_warmups(tmp_path):
    cache = str(tmp_path / "memo")
    cold = MemoStats()
    first = fig1a_executor(cache_dir=cache).run(POINTS, stats=cold)
    assert cold.warmups_simulated == 2 and cold.result_hits == 0

    warm = MemoStats()
    second = fig1a_executor(cache_dir=cache).run(POINTS, stats=warm)
    assert warm.warmups_simulated == 0          # THE acceptance criterion
    assert warm.forks == 0 and warm.points_run == 0
    assert warm.result_hits == len(POINTS)
    assert second == first
    assert warm.prefix_digests == cold.prefix_digests


def test_new_points_reuse_cached_prefix_digests(tmp_path):
    cache = str(tmp_path / "memo")
    fig1a_executor(cache_dir=cache).run(POINTS)
    extended = POINTS + [{"mode": "everywhere", "cores": 2,
                          "msgs_per_core": 32}]
    stats = MemoStats()
    results = fig1a_executor(cache_dir=cache).run(extended, stats=stats)
    # The new point shares a cached prefix: exactly one re-warm-up (to
    # rebuild the live world the cache cannot hold), six result hits.
    assert stats.result_hits == len(POINTS)
    assert stats.warmups_simulated == 1
    assert results[-1]["messages"] == 2 * 32


def test_version_bump_invalidates_cache(tmp_path, monkeypatch):
    cache = str(tmp_path / "memo")
    fig1a_executor(cache_dir=cache).run(POINTS[:2])
    monkeypatch.setattr("repro.bench.memo.MEMO_VERSION", "memo0-other")
    stats = MemoStats()
    fig1a_executor(cache_dir=cache).run(POINTS[:2], stats=stats)
    assert stats.result_hits == 0
    assert stats.warmups_simulated == 1


def test_results_keyed_by_digest_not_prefix_params(tmp_path):
    """The cache key is the warm state's digest: a digest index that no
    longer describes the code's behaviour is distrusted wholesale."""
    cache = str(tmp_path / "memo")
    ex = fig1a_executor(cache_dir=cache)
    ex.run(POINTS[:3])
    # Corrupt the digest index: every prefix record now lies.
    for name in os.listdir(cache):
        path = os.path.join(cache, name)
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if payload["point"].get("kind") == "warm-prefix":
            payload["result"] = "0" * 24
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
    stats = MemoStats()
    results = fig1a_executor(cache_dir=cache).run(POINTS[:3], stats=stats)
    assert stats.warmups_simulated == 1   # re-warmed, digest mismatch seen
    assert stats.result_hits == 0         # nothing served off the bad index
    assert results == ex.run(POINTS[:3])


def test_executor_without_fork_support(monkeypatch):
    monkeypatch.setattr("repro.bench.memo.fork_available", lambda: False)
    stats = MemoStats()
    results = fig1a_executor().run(POINTS[:3], stats=stats)
    assert stats.forks == 0
    assert results == fig1a_executor().run(POINTS[:3])


def test_forked_tail_error_propagates():
    def prefix(x):
        return x

    def tail(state, y):
        if y == 1:
            raise ValueError("boom in child")
        return state + y

    ex = WarmPrefixExecutor(prefix, tail, prefix_keys=("x",),
                            digest_fn=lambda s: f"d{s}")
    with pytest.raises(RuntimeError, match="boom in child"):
        ex.run([{"x": 0, "y": 1}, {"x": 0, "y": 2}])


def test_scenarios_memo_results_in_spec_order():
    specs = sample_scenarios(5, 3)
    outcomes = run_scenarios(specs)
    assert [o["spec"]["seed"] for o in outcomes] == \
        [s.seed for s in specs]
