#!/usr/bin/env python3
"""Repository benchmark: four workloads, end-to-end metrics, and a traced
per-layer split of host time.

Run from the repository root::

    python3 perfbench/run.py                       # all four workloads
    python3 perfbench/run.py --workload msgrate --seed 1 --seconds 10
    python3 perfbench/run.py --workload campaign --trace 1

``--trace 0`` (default) measures the end-to-end metrics with tracing off.
``--trace 1`` runs a fixed amount of the workload twice, untraced then
traced, and reports the per-layer metrics. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit). See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: The seed used when none is given, and the held-out seed on which a
#: later performance claim must be confirmed (never tune on it).
DEFAULT_SEED = 1
HELD_OUT_SEED = 20221

#: Set-ups per run; ``setup_s`` is their median. One precedes the run and
#: the others are spread over it, so that the median sees the host's speed
#: over the whole run, not over one second of it.
SETUP_REPEATS = 9

#: The host-speed probe run just before and just after every set-up: a
#: fresh interpreter importing these standard-library modules, the same
#: kind of work as a set-up but none of this repository's code.
PROBE_MODULES = ("json", "argparse", "email.message", "http.client",
                 "decimal", "statistics")
#: The probe's time on the reference host (a shared 2-vCPU x86-64 VM,
#: CPython 3.11). ``setup_s`` is each set-up's time scaled by this over
#: its own probes: set-up seconds on that host, steady while the host's
#: speed drifts.
PROBE_REF_S = 0.075

#: (name, unit) of every end-to-end metric, as BENCHMARK.json lists them.
#: Throughput and latency percentiles are reported with the per-layer
#: metrics instead: on a shared host they drift between runs by more than
#: any bound a gate could use (see README.md).
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "fraction"),
)


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default=None,
                    help="msgrate, profile, campaign or serve "
                         "(default: all four, in one process)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"input seed (default {DEFAULT_SEED}; held-out "
                         f"seed for confirming claims: {HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="measured time per workload (default 10)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced run and per-layer metrics")
    return ap.parse_args(argv)


def _import_repro():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"error: no source tree at {SRC}")
    sys.path[:0] = [SRC, HERE]
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: repro imported from {repro.__file__}, "
                         f"not from {SRC}")


def _git_commit() -> str:
    """The checkout's commit, or ``unknown`` outside a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _metadata(args, workload: str, serve_workers) -> dict:
    import numpy as np
    from repro.sim import default_engine
    return {"workload": workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "sim_engine": default_engine(), "git_commit": _git_commit(),
            "serve_workers": serve_workers}


def _fresh_import(modules) -> None:
    """Import ``modules`` in a fresh interpreter (what a user's run pays)."""
    code = (f"import sys; sys.path.insert(0, {SRC!r}); "
            f"import {', '.join(modules)}")
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)


def _probe() -> float:
    """Seconds the host-speed probe takes now."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c",
                    f"import {', '.join(PROBE_MODULES)}"],
                   cwd=ROOT, check=True)
    return time.perf_counter() - t0


class SetupSampler:
    """Times set-ups of a workload: one that starts the run, and the rest
    between units of the timed run, evenly over its ``seconds``.

    Each set-up pays a fresh interpreter's imports plus input generation
    (and, for ``serve``, the service spawn until every worker attached).
    ``times`` holds the set-ups as timed, and ``scaled`` the same times
    in seconds of the reference host (see :data:`PROBE_REF_S`).
    """

    def __init__(self, wl, seed: int, seconds: float):
        import importlib
        for module in wl.imports:
            importlib.import_module(module)
        self.wl, self.seed = wl, seed
        self.step = seconds / (SETUP_REPEATS - 1)
        self.next_at = self.step / 2
        self.times: list[float] = []
        self.scaled: list[float] = []

    def setup(self):
        before = _probe()
        t0 = time.perf_counter()
        _fresh_import(self.wl.imports)
        state = self.wl.setup(self.seed)
        took = time.perf_counter() - t0
        probe = (before + _probe()) / 2
        self.times.append(took)
        self.scaled.append(took * PROBE_REF_S / probe)
        return state

    def __call__(self, elapsed: float) -> None:
        """The run's pause hook: one more set-up when its time has come."""
        if elapsed >= self.next_at and len(self.times) < SETUP_REPEATS:
            self.wl.teardown(self.setup())
            self.next_at += self.step

    def median(self) -> float:
        """Median set-up time, in seconds of the reference host."""
        while len(self.times) < SETUP_REPEATS:
            self.wl.teardown(self.setup())
        return statistics.median(self.scaled)


def _reset_peak_rss() -> None:
    """Restart this process's peak RSS count, so that each workload reports
    its own peak when several run in one process (Linux only)."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
    except OSError:
        pass


def _peak_rss_mb() -> float:
    """This process's peak RSS since :func:`_reset_peak_rss`, MB."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _timed_run(wl, state, seconds: float, pause=None):
    """One untraced, time-boxed run, checked after the clock stops."""
    try:
        res = wl.run(state, seconds=seconds, pause=pause)
        wl.check(state, res, detail=False)
    finally:
        wl.teardown(state)
    return res


def measure(wl, args) -> tuple[dict, object]:
    """End-to-end metrics of one untraced, time-boxed run."""
    from harness.layers import speed
    _reset_peak_rss()
    sampler = SetupSampler(wl, args.seed, args.seconds)
    state = sampler.setup()
    res = _timed_run(wl, state, args.seconds, pause=sampler)
    rss = _peak_rss_mb()
    values = {
        "setup_s": sampler.median(),
        "peak_rss_mb": rss + res.child_rss_mb,
        "ok_frac": 1.0 - res.failed / max(1, res.attempted),
    }
    meta = {"serve_workers": state.get("workers"),
            "samples": len(res.samples_ms), "units": res.units,
            "setup_samples_s": sampler.times,
            "setup_raw_s": statistics.median(sampler.times), **speed(res)}
    return {n: (values[n], u) for n, u in END_TO_END}, (res, meta)


def traced(wl, args) -> tuple[dict, object]:
    """Per-layer metrics: a fixed amount of work run untraced, then again
    with every listed entry point wrapped."""
    from harness.layers import (PER_LAYER_METRICS, Tally, exact_counts,
                                install, per_layer_metrics)
    from harness.trace import SpanRecorder

    def phase(trace: bool):
        setup_rec = SpanRecorder()
        # The service forks workers; tracing it would trace them too.
        patcher = install(setup_rec, Tally()) \
            if trace and wl.name != "serve" else None
        try:
            state = wl.setup(args.seed)
        finally:
            if patcher is not None:
                patcher.restore()
        rec, tally = SpanRecorder(), Tally()
        patcher = install(rec, tally) if trace else None
        try:
            t0 = time.perf_counter()
            res = wl.run(state, count=wl.trace_count)
            wall = time.perf_counter() - t0
        finally:
            if patcher is not None:
                patcher.restore()
        try:
            wl.check(state, res, detail=trace)
        finally:
            wl.teardown(state)
        return res, wall, rec, tally, setup_rec, state.get("workers")

    res0, wall0, _, _, _, _ = phase(trace=False)
    res, wall, rec, tally, setup_rec, workers = phase(trace=True)
    # Throughput and latency come from an untraced, time-boxed run.
    timed = _timed_run(wl, wl.setup(args.seed), args.seconds)
    msgs = wl.messages(rec, res)
    values = per_layer_metrics(rec, tally, setup_rec, msgs=msgs,
                               scenarios=res.scenarios, wall_s=wall,
                               untraced_s=wall0, serve=res.serve,
                               timed=timed)
    counts = {**exact_counts(rec, tally), **res.counts}
    os.makedirs(OUT_DIR, exist_ok=True)
    rec.save(os.path.join(OUT_DIR, f"spans-{wl.name}-seed{args.seed}.npz"))
    info = {"res": res, "runs": (res0, res, timed), "wall": wall,
            "wall0": wall0,
            "rec": rec, "counts": counts, "msgs": msgs,
            "serve_workers": workers}
    return {n: (values[n], u) for n, u in PER_LAYER_METRICS}, info


def _print_metrics(wl, metrics: dict) -> None:
    print(f"== {wl.name} (work: {wl.unit}; sample: {wl.sample}): {wl.why}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.4f} {unit}")


def _print_layers(wl, info: dict) -> None:
    from harness.layers import LAYERS, layer_calls, layer_self_ms
    rec, wall = info["rec"], info["wall"]
    self_ms, calls = layer_self_ms(rec), layer_calls(rec)
    res = info["res"]
    print(f"-- {wl.name} traced: {res.attempted} x {wl.sample}, "
          f"{info['msgs']} msgs; wall {wall:.3f} s traced vs "
          f"{info['wall0']:.3f} s untraced "
          f"(trace_overhead {wall / info['wall0']:.2f}x)")
    print(f"   {'layer':14s} {'calls':>10s} {'self ms':>10s} {'share':>7s}")
    for layer in LAYERS:
        if calls.get(layer) or self_ms.get(layer):
            print(f"   {layer:14s} {calls.get(layer, 0):10d} "
                  f"{self_ms[layer]:10.1f} "
                  f"{100 * self_ms[layer] / 1e3 / wall:6.1f}%")
    outside = wall - rec.covered_ns / 1e9
    print(f"   {'(no span)':14s} {'':10s} {outside * 1e3:10.1f} "
          f"{100 * outside / wall:6.1f}%")


def run_one(wl, args) -> tuple[dict, dict]:
    if args.trace:
        metrics, info = traced(wl, args)
        _print_layers(wl, info)
        attempted = sum(r.attempted for r in info["runs"])
        failed = sum(r.failed for r in info["runs"])
        extra = {"counts": info["counts"]}
        workers = info["serve_workers"]
    else:
        metrics, (res, meta) = measure(wl, args)
        attempted, failed = res.attempted, res.failed
        extra = meta
        workers = meta["serve_workers"]
        print(f"   (no bound) {meta['throughput_per_s']:.1f} {wl.unit}/s; "
              f"latency p50 {meta['latency_ms_p50']:.3f} ms, "
              f"p95 {meta['latency_ms_p95']:.3f} ms over {meta['samples']} "
              f"x {wl.sample}; set-up {meta['setup_raw_s']:.4f} s as timed")
    _print_metrics(wl, metrics)
    meta = _metadata(args, wl.name, workers)
    print("# meta " + json.dumps(meta, sort_keys=True))
    doc = {"meta": meta, "attempted": attempted, "failed": failed,
           "metrics": {n: {"value": v, "unit": u}
                       for n, (v, u) in metrics.items()}, **extra}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{wl.name}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
    return metrics, {"attempted": attempted, "failed": failed}


def main(argv=None) -> int:
    args = _parse(argv)
    _import_repro()
    from harness.workloads import WORKLOADS
    if args.workload is not None and args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r} "
                         f"(known: {', '.join(WORKLOADS)})")
    names = [args.workload] if args.workload else list(WORKLOADS)
    attempted = failed = 0
    metrics: dict = {}
    for name in names:
        wl = WORKLOADS[name](ROOT)
        m, tally = run_one(wl, args)
        attempted += tally["attempted"]
        failed += tally["failed"]
        prefix = "" if args.workload else f"{name}."
        metrics.update({prefix + n: {"value": v, "unit": u}
                        for n, (v, u) in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
