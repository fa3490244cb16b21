"""The four benchmark workloads: inputs from a seed, timed or fixed-size
runs, and the reference checks that decide which attempts failed.

Each workload runs in two shapes: ``run(state, seconds=...)`` keeps
going until the time is up and at least :data:`MIN_SAMPLES` latency
samples are in, stopping only where every seed has done the same work
(whole rounds of the five Fig 1(a) points, whole passes over the campaign
pool); ``run(state, count=...)`` does a fixed amount of work, which is
what the traced run needs so that its counts repeat exactly. A timed run
can take ``pause``, a callable run between two units of work and kept off
the clock: the benchmark takes its set-up samples there, so that they
span the run instead of one moment of it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

import numpy as np

__all__ = ["WORKLOADS", "RunResult", "Workload", "canonical"]

#: The Fig 1(a) modes, at the paper's 16 cores on the Omni-Path preset.
MODES = ("everywhere", "threads-original", "threads-tags", "threads-comms",
         "threads-endpoints")
CORES = 16
#: Messages per core of one point: small enough that a 10 s run holds at
#: least :data:`MIN_SAMPLES` points on a 2-vCPU host (about 30 ms a
#: ``msgrate`` point, 45 ms a ``profile`` point).
MSGRATE_MSGS_PER_CORE = 48
PROFILE_MSGS_PER_CORE = 16

#: Fewest latency samples a timed run stops at, so that its p95 rests
#: on enough points; a slow host runs a little past ``seconds`` instead.
MIN_SAMPLES = 200

#: The campaign pool: every run draws its scenarios from these specs.
CAMPAIGN_POOL_SEED = 2022
CAMPAIGN_POOL_SIZE = 256

#: Serve jobs: two msgrate points each, small enough that the
#: orchestrator, HTTP and cache dominate. Two thirds repeat an earlier
#: job: with half, the job-time median sat on the gap between the
#: cache-read and fresh clusters and swung by a third between seeds; at
#: two thirds the p50 lies among reads and the p95 among fresh jobs.
SERVE_REPEAT_SHARE = 2 / 3
SERVE_POLL_S = 0.002
SERVE_SEED_BASE = 1_000_000


def canonical(doc: Any) -> str:
    """Canonical JSON text: the unit of every byte-identity check."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      default=str)


def sha(doc: Any) -> str:
    return hashlib.sha256(canonical(doc).encode("utf-8")).hexdigest()


@dataclass
class RunResult:
    """What one run did, timed and checked."""

    #: Work units completed (messages, scenarios or points).
    units: int = 0
    #: Host ms per latency sample (Fig 1(a) point, scenario or job).
    samples_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    #: Denominators of the per-layer metrics.
    msgs: int = 0
    scenarios: int = 0
    #: Memory of helper processes (the service and its workers), MB.
    child_rss_mb: float = 0.0
    #: Per-layer numbers measured outside this process (``serve`` only).
    serve: dict[str, float] = field(default_factory=dict)
    #: Exact counts the program reports (``serve`` cache hits and misses).
    counts: dict[str, int] = field(default_factory=dict)
    #: What :meth:`Workload.check` compares with the references.
    outputs: list = field(default_factory=list)


class Workload:
    """One workload: a name, a unit, the imports its setup pays for."""

    name = ""
    unit = ""
    sample = ""
    why = ""
    #: Modules a fresh interpreter imports before the workload can run.
    imports: tuple[str, ...] = ()
    #: Fixed work of one traced run (rounds, scenarios or jobs).
    trace_count = 1

    def __init__(self, root: str, reference: Optional[dict] = None):
        self.root = root
        self.reference = load_reference(root) if reference is None \
            else reference

    def setup(self, seed: int) -> Any:
        """Generate inputs (and start helpers); returns the run state."""
        raise NotImplementedError

    def run(self, state: Any, seconds: Optional[float] = None,
            count: Optional[int] = None,
            pause: Optional[Callable[[float], None]] = None) -> RunResult:
        raise NotImplementedError

    def check(self, state: Any, res: RunResult, detail: bool) -> None:
        """Compare ``res.outputs`` with the references (untimed); adds
        mismatches to ``res.failed``. ``detail`` also fetches what the
        traced run reports."""

    def teardown(self, state: Any) -> None:
        """Stop helpers started by :meth:`setup`."""

    def messages(self, rec, res: RunResult) -> int:
        """Denominator of the ``*_per_msg`` layer metrics."""
        return res.msgs


def load_reference(root: str) -> dict:
    path = os.path.join(root, "perfbench", "reference.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _rounds(seed: int) -> Iterator[list[str]]:
    """Rounds of the five Fig 1(a) modes, each in a seeded order."""
    rng = np.random.default_rng(seed)
    while True:
        yield [MODES[i] for i in rng.permutation(len(MODES))]


class Clock:
    """Run time of one loop, with pauses taken off the clock.

    :meth:`tick` runs between two units of work; it calls ``pause`` with
    the run time so far, and the pause counts neither towards the run's
    wall time nor towards its deadline.
    """

    def __init__(self, pause: Optional[Callable[[float], None]] = None):
        self._pause = pause
        self.paused = 0.0
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start - self.paused

    def tick(self) -> None:
        if self._pause is not None:
            t0 = time.perf_counter()
            self._pause(self.elapsed())
            self.paused += time.perf_counter() - t0

    def more(self, seconds: Optional[float], count: Optional[int],
             done: int, out: RunResult) -> bool:
        """Whether to start another unit: ``done`` of ``count``, or until
        ``seconds`` have passed and :data:`MIN_SAMPLES` are in."""
        if count is not None:
            return done < count
        return (self.elapsed() < (seconds or 0.0)
                or len(out.samples_ms) < MIN_SAMPLES)


# -- msgrate / profile -----------------------------------------------------
class MsgRate(Workload):
    name = "msgrate"
    unit = "msgs"
    sample = "Fig 1(a) point"
    why = ("the five Fig 1(a) modes at 16 cores: the full mpi, matching, "
           "netsim and kernel path per simulated message, no obs or checker")
    imports = ("repro.bench.msgrate", "repro.netsim.config")
    msgs_per_core = MSGRATE_MSGS_PER_CORE

    def setup(self, seed: int) -> Any:
        return {"rounds": _rounds(seed)}

    def point(self, mode: str):
        from repro.bench.msgrate import MsgRateConfig, run_msgrate
        from repro.netsim.config import NetworkConfig
        cfg = MsgRateConfig(mode=mode, cores=CORES,
                            msgs_per_core=self.msgs_per_core)
        return run_msgrate(cfg, net=NetworkConfig.omnipath())

    def run(self, state: Any, seconds: Optional[float] = None,
            count: Optional[int] = None,
            pause: Optional[Callable[[float], None]] = None) -> RunResult:
        ref = self.reference[self.name]
        out = RunResult()
        clock = Clock(pause)
        rounds = 0
        while clock.more(seconds, count, rounds, out):
            for mode in next(state["rounds"]):
                t0 = time.perf_counter()
                try:
                    r = self.point(mode)
                    ok = (r.rate == ref[mode]["rate"]
                          and r.span == ref[mode]["span"])
                    done = r.messages
                except Exception:  # counted as failed; the run goes on
                    ok, done = False, 0
                out.samples_ms.append((time.perf_counter() - t0) * 1e3)
                out.attempted += 1
                out.failed += not ok
                out.units += done
            rounds += 1
            clock.tick()
        out.wall_s = clock.elapsed()
        out.msgs = out.units
        return out


class Profile(MsgRate):
    name = "profile"
    sample = "instrumented Fig 1(a) point"
    why = ("the same five points with a fresh MetricsRegistry and Tracer, "
           "report and Chrome-trace export, as `repro profile` does")
    imports = MsgRate.imports + ("repro.obs",)
    msgs_per_core = PROFILE_MSGS_PER_CORE

    def point(self, mode: str):
        from repro.bench.msgrate import MsgRateConfig, run_msgrate
        from repro.netsim.config import NetworkConfig
        from repro.obs import (MetricsRegistry, Tracer, export_chrome_trace,
                               render_report)
        metrics = MetricsRegistry()
        tracer = Tracer()
        cfg = MsgRateConfig(mode=mode, cores=CORES,
                            msgs_per_core=self.msgs_per_core)
        r = run_msgrate(cfg, net=NetworkConfig.omnipath(), metrics=metrics,
                        tracer=tracer)
        render_report(metrics)
        export_chrome_trace(tracer, metrics=metrics)
        return r


# -- campaign --------------------------------------------------------------
class Campaign(Workload):
    name = "campaign"
    unit = "scenarios"
    sample = "scenario"
    why = ("sampled chaos scenarios through run_scenario: seven app drivers, "
           "checker, snapshots, faults, routed topologies; little plain pt2pt")
    imports = ("repro.scenarios.sample", "repro.scenarios.executor")
    trace_count = 40

    def setup(self, seed: int) -> Any:
        from repro.scenarios.sample import sample_scenarios
        ref = self.reference[self.name]
        pool = sample_scenarios(ref["pool_seed"], ref["pool_size"])
        return {"pool": pool, "seed": seed}

    def order(self, state: Any, p: int) -> list[int]:
        """Pass ``p`` over the whole pool, in an order drawn from the seed."""
        rng = np.random.default_rng([state["seed"], p])
        return [int(i) for i in rng.permutation(len(state["pool"]))]

    def _indices(self, state: Any, seconds: Optional[float],
                 count: Optional[int], clock: Clock,
                 out: RunResult) -> Iterator[int]:
        """The first ``count`` scenarios of pass 0, or whole passes until
        the time is up, so that every seed times the same scenarios."""
        if count is not None:
            yield from self.order(state, 0)[:count]
            return
        p = 0
        while clock.more(seconds, None, 0, out):
            yield from self.order(state, p)
            p += 1

    def run(self, state: Any, seconds: Optional[float] = None,
            count: Optional[int] = None,
            pause: Optional[Callable[[float], None]] = None) -> RunResult:
        from repro.scenarios.executor import run_scenario
        out = RunResult()
        clock = Clock(pause)
        for index in self._indices(state, seconds, count, clock, out):
            t0 = time.perf_counter()
            try:
                outcome = run_scenario(state["pool"][index])
            except Exception:  # counted as failed; the run goes on
                outcome = None
            out.samples_ms.append((time.perf_counter() - t0) * 1e3)
            out.outputs.append((index, outcome))
            out.attempted += 1
            out.units += 1
            clock.tick()
        out.wall_s = clock.elapsed()
        out.scenarios = out.units
        return out

    def check(self, state: Any, res: RunResult, detail: bool) -> None:
        """The sha256 of each canonical outcome must equal the reference
        recorded for that pool scenario."""
        expected = self.reference[self.name]["outcomes"]
        res.failed += sum(outcome is None or sha(outcome) != expected[index]
                          for index, outcome in res.outputs)

    def messages(self, rec, res: RunResult) -> int:
        """Wire messages handed to the fabric (the traced count)."""
        return rec.count("netsim:Fabric.transmit")


# -- serve -----------------------------------------------------------------
def serve_jobs(seed: int) -> Iterator[dict]:
    """Sweep jobs of two msgrate points each, without end. Every job
    after the first repeats an earlier fresh job with seeded probability
    :data:`SERVE_REPEAT_SHARE`, so its points are cache reads; fresh jobs
    carry unseen point seeds."""
    rng = np.random.default_rng(seed)
    fresh: list[dict] = []
    for i in itertools.count():
        if fresh and rng.random() < SERVE_REPEAT_SHARE:
            yield fresh[int(rng.integers(len(fresh)))]
            continue
        modes = sorted(MODES[j] for j in rng.choice(len(MODES), 2,
                                                    replace=False))
        spec = {"params": {"mode": modes,
                           "cores": int(rng.choice([1, 2])),
                           "msgs_per_core": int(rng.choice([8, 16])),
                           "seed": SERVE_SEED_BASE + i}}
        fresh.append(spec)
        yield spec


def _pss_mb(pid: int) -> float:
    """Proportional set size of a live process, MB (0 if unreadable):
    each page it shares counts as a share of the processes mapping it, so
    memory a forked child inherited is not counted once per child."""
    try:
        with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


class Serve(Workload):
    name = "serve"
    unit = "points"
    sample = "job (submit to done)"
    why = ("closed-loop sweep jobs against a forked service, two thirds "
           "repeating earlier points: orchestrator, HTTP, workers, ResultCache")
    imports = ("repro.serve.service", "repro.serve.points")
    trace_count = 200

    def setup(self, seed: int) -> Any:
        from repro.errors import ServeError
        from repro.serve.service import spawn_service
        jobs = serve_jobs(seed)
        state_dir = os.path.join(self.root, ".perfbench",
                                 f"serve-{os.getpid()}-{time.time_ns()}")
        handle = spawn_service(state_dir)
        with open(os.path.join(state_dir, "serve.json"),
                  encoding="utf-8") as fh:
            workers = json.load(fh)["workers"]
        client = handle.client()
        deadline = time.monotonic() + 60
        while len(client.healthz()["workers"]) < workers:
            if time.monotonic() > deadline:
                handle.stop()
                raise ServeError("workers did not attach within 60 s")
            time.sleep(0.002)
        return {"jobs": jobs, "handle": handle, "client": client,
                "workers": workers, "state_dir": state_dir}

    def teardown(self, state: Any) -> None:
        state["handle"].stop()
        shutil.rmtree(state["state_dir"], ignore_errors=True)

    def run(self, state: Any, seconds: Optional[float] = None,
            count: Optional[int] = None,
            pause: Optional[Callable[[float], None]] = None) -> RunResult:
        client = state["client"]
        out = RunResult()
        polls = 0
        clock = Clock(pause)
        while clock.more(seconds, count, out.attempted, out):
            spec = next(state["jobs"])
            t0 = time.perf_counter()
            try:
                job_id = client.submit("sweep", spec)["job_id"]
                while True:
                    status = client.job(job_id)
                    polls += 1
                    if status["status"] != "running":
                        break
                    time.sleep(SERVE_POLL_S)
                ok = status["status"] == "done"
            except Exception:  # counted as failed; the run goes on
                ok, job_id = False, None
            out.samples_ms.append((time.perf_counter() - t0) * 1e3)
            out.attempted += 1
            if ok:
                out.units += len(spec["params"]["mode"])
                out.outputs.append((job_id, spec))
            else:
                out.failed += 1
                out.outputs.append((None, spec))
            clock.tick()
        out.wall_s = clock.elapsed()
        out.serve["serve.polls_per_job"] = polls / max(1, out.attempted)
        return out

    def check(self, state: Any, res: RunResult, detail: bool) -> None:
        """Every served result must equal an in-process execution."""
        from repro.serve.points import execute_point
        client = state["client"]
        res.child_rss_mb = _pss_mb(state["handle"].pid) + sum(
            _pss_mb(pid) for pid in state["handle"].worker_pids())
        expected: dict[str, str] = {}
        exec_ms: list[float] = []
        for job_id, spec in res.outputs:
            if job_id is None:  # submit or poll raised: already failed
                continue
            doc = client.result(job_id)
            ok = doc["spec"] == spec and len(doc["points"]) == 2
            for point, result in zip(doc["points"], doc["results"]):
                key = canonical(point)
                if key not in expected:
                    expected[key] = canonical(execute_point("msgrate", point))
                ok = ok and canonical(result) == expected[key]
            res.failed += not ok
            if detail:
                exec_ms += [e["dur"] / 1e3
                            for e in client.trace(job_id)["traceEvents"]]
        snap = client.metrics()["metrics"]

        def counter(name: str) -> int:
            return int(sum(s["value"] for s in snap.get(name, [])))

        hits, misses = counter("serve.cache.hit"), counter("serve.cache.miss")
        res.counts = {"serve.cache.hit": hits, "serve.cache.miss": misses}
        res.serve.update({
            "serve.cache.hit_ratio": hits / max(1, hits + misses),
            "serve.point_exec_ms_p50":
                float(np.median(exec_ms)) if exec_ms else 0.0,
            "serve.point.requeued": float(counter("serve.point.requeued")),
            "serve.point.failed": float(counter("serve.point.failed")),
        })


WORKLOADS = {w.name: w for w in (MsgRate, Profile, Campaign, Serve)}
