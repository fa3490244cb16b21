"""The traced layers: which entry points belong to which, and the
per-layer metrics computed from one traced run.

Layer names follow the ``repro`` subpackages. A span is named
``<layer>:<Qual.name>``; simulated tasks are additionally timed per
resumption as ``<layer>:task``, with the layer of the module that defines
the task's generator (so the Fig 1(a) driver's sender threads count as
``bench`` and an application proxy's threads as ``apps``).
"""

from __future__ import annotations

import statistics
from typing import Any, Optional

from .trace import Patcher, SpanRecorder

__all__ = ["ENTRY_POINTS", "LAYERS", "PER_LAYER_METRICS", "Tally",
           "exact_counts", "install", "layer_calls",
           "layer_of_file", "layer_self_ms", "per_layer_metrics", "speed"]

#: Module prefix -> layer, longest prefix first.
_PACKAGE_LAYERS = (
    ("repro.mpi.matching", "mpi.matching"),
    ("repro.mpi", "mpi"),
    ("repro.mapping", "mpi"),
    ("repro.sim", "sim"),
    ("repro.netsim", "netsim"),
    ("repro.runtime", "runtime"),
    ("repro.bench", "bench"),
    ("repro.obs", "obs"),
    ("repro.check", "check"),
    ("repro.snap", "snap"),
    ("repro.faults", "faults"),
    ("repro.apps", "apps"),
    ("repro.scenarios", "scenarios"),
    ("repro.serve", "serve"),
)


def layer_of_module(module: str) -> str:
    for prefix, layer in _PACKAGE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


def layer_of_file(filename: str) -> str:
    """Layer of the ``repro`` module defined in ``filename``."""
    head, sep, rel = filename.rpartition("/repro/")
    if not sep:
        return "other"
    module = "repro." + rel.removesuffix(".py").replace("/", ".")
    return layer_of_module(module.removesuffix(".__init__"))


#: (layer, ``module:Qual.name``); ``Class.*`` = every public method
#: defined on that class. Matching's ``post_recv``/``incoming`` are
#: listed separately because their return values carry the scan depth.
ENTRY_POINTS: tuple[tuple[str, str], ...] = (
    ("sim", "repro.sim.core:Simulator.run"),
    ("sim", "repro.sim.core:Simulator.run_steps"),
    ("sim", "repro.sim.core:Simulator.step"),
    ("sim", "repro.sim.calendar:CalendarSimulator.run_steps"),
    ("sim", "repro.sim.calendar:CalendarSimulator.step"),
    ("runtime", "repro.runtime.world:World.__init__"),
    ("runtime", "repro.runtime.world:World.run"),
    ("runtime", "repro.runtime.world:World.run_all"),
    ("runtime", "repro.runtime.world:World.meet"),
    ("runtime", "repro.runtime.world:World.finalize_metrics"),
    ("runtime", "repro.runtime.world:Node.deliver"),
    ("mpi", "repro.mpi.comm:Communicator.*"),
    ("mpi", "repro.mpi.endpoints:Endpoint.*"),
    ("mpi", "repro.mpi.endpoints:comm_create_endpoints"),
    ("mpi", "repro.mpi.endpoints:comm_create_rankpoints"),
    ("mpi", "repro.mpi.request:Request.*"),
    ("mpi", "repro.mpi.request:waitall"),
    ("mpi", "repro.mpi.request:waitany"),
    ("mpi", "repro.mpi.request:testall"),
    ("mpi", "repro.mpi.request:testany"),
    ("mpi", "repro.mpi.library:MpiLibrary.*"),
    ("mpi", "repro.mpi.partitioned:_PartitionedOp.wait"),
    ("mpi", "repro.mpi.partitioned:PsendRequest.*"),
    ("mpi", "repro.mpi.partitioned:PrecvRequest.*"),
    ("mpi", "repro.mpi.partitioned:psend_init"),
    ("mpi", "repro.mpi.partitioned:precv_init"),
    ("mpi", "repro.mpi.partitioned:startall"),
    ("mpi", "repro.mpi.partitioned:waitall_partitioned"),
    ("mpi", "repro.mpi.rma.window:Window.*"),
    ("mpi", "repro.mpi.rma.window:win_create"),
    ("mpi.matching", "repro.mpi.matching:MatchingEngine.probe"),
    ("mpi.matching", "repro.mpi.matching:MatchingEngine.claim_unexpected"),
    ("mpi.matching", "repro.mpi.matching:MatchingEngine.scan_cost_unexpected"),
    ("mpi.matching", "repro.mpi.matching:MatchingEngine.scan_cost_posted"),
    ("mpi.matching", "repro.mpi.matching:MatchingEngine.cancel_posted"),
    ("netsim", "repro.netsim.fabric:Fabric.transmit"),
    ("netsim", "repro.netsim.fabric:Fabric.transmit_batch"),
    ("netsim", "repro.netsim.fabric:Fabric.latency_for"),
    ("netsim", "repro.netsim.fabric:Fabric._on_arrival"),
    ("netsim", "repro.netsim.topology.routed:RoutedFabric.latency_for"),
    ("netsim", "repro.netsim.topology.graph:Topology.route"),
    ("netsim", "repro.netsim.nic:HardwareContext.issue"),
    ("netsim", "repro.netsim.nic:HardwareContext.issue_batch"),
    ("netsim", "repro.netsim.nic:HardwareContext.issue_event"),
    ("netsim", "repro.netsim.nic:Nic.allocate_context"),
    ("netsim", "repro.netsim.nic:Nic.failover_target"),
    ("netsim", "repro.netsim.traffic:install_traffic"),
    ("netsim", "repro.netsim.traffic:TrafficSession.on_background"),
    ("bench", "repro.bench.msgrate:run_msgrate"),
    ("bench", "repro.bench.msgrate:_sender"),
    ("bench", "repro.bench.msgrate:_receiver"),
    ("obs", "repro.obs.metrics:MetricsRegistry.*"),
    ("obs", "repro.obs.metrics:Counter.*"),
    ("obs", "repro.obs.metrics:Gauge.*"),
    ("obs", "repro.obs.metrics:Histogram.*"),
    ("obs", "repro.sim.trace:Tracer.*"),
    ("obs", "repro.obs.collect:collect_world"),
    ("obs", "repro.obs.report:render_report"),
    ("obs", "repro.obs.chrome:build_chrome_trace"),
    ("obs", "repro.obs.chrome:export_chrome_trace"),
    ("check", "repro.check.checker:Checker.*"),
    ("snap", "repro.snap.session:SnapController.*"),
    ("snap", "repro.snap.state:capture_state"),
    ("snap", "repro.snap.state:state_digest"),
    ("faults", "repro.faults.injector:FaultInjector.*"),
    ("faults", "repro.faults.transport:ReliableTransport.*"),
    ("apps", "repro.scenarios.apps:AppAdapter.run"),
    ("apps", "repro.apps.stencil.runner:run_stencil"),
    ("apps", "repro.apps.legion.runtime:run_legion"),
    ("apps", "repro.apps.legion.circuit:run_circuit"),
    ("apps", "repro.apps.graph.vite:run_graph"),
    ("apps", "repro.apps.nwchem.blocksparse:run_nwchem"),
    ("apps", "repro.apps.vasp.allreduce:run_vasp"),
    ("apps", "repro.apps.device.offload:run_device"),
    ("scenarios", "repro.scenarios.sample:sample_scenarios"),
    ("scenarios", "repro.scenarios.executor:run_scenario"),
    ("serve", "repro.serve.client:ServeClient.*"),
)

#: Layers in report order.
LAYERS = ("sim", "runtime", "mpi", "mpi.matching", "netsim", "bench",
          "obs", "check", "snap", "faults", "apps", "scenarios", "serve",
          "other")

#: (name, unit) of every per-layer metric, in report order. The first
#: three are end-to-end numbers kept here, without a bound, because they
#: do not repeat closely enough on a shared host to gate on.
PER_LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p95", "ms"),
    ("sim.events_per_msg", "count"),
    ("sim.self_us_per_msg", "us"),
    ("mpi.calls_per_msg", "count"),
    ("mpi.self_us_per_msg", "us"),
    ("mpi.matching.calls_per_msg", "count"),
    ("mpi.matching.self_us_per_msg", "us"),
    ("mpi.matching.scanned_per_match", "count"),
    ("netsim.calls_per_msg", "count"),
    ("netsim.self_us_per_msg", "us"),
    ("runtime.world_build_ms", "ms"),
    ("bench.self_us_per_msg", "us"),
    ("obs.calls_per_msg", "count"),
    ("obs.self_us_per_msg", "us"),
    ("obs.export_ms", "ms"),
    ("check.calls_per_scenario", "count"),
    ("check.self_ms_per_scenario", "ms"),
    ("snap.self_ms_per_scenario", "ms"),
    ("faults.calls_per_scenario", "count"),
    ("faults.self_ms_per_scenario", "ms"),
    ("apps.self_ms_per_scenario", "ms"),
    ("scenarios.sample_ms", "ms"),
    ("serve.http_ms_p50", "ms"),
    ("serve.polls_per_job", "count"),
    ("serve.cache.hit_ratio", "fraction"),
    ("serve.point_exec_ms_p50", "ms"),
    ("serve.point.requeued", "count"),
    ("serve.point.failed", "count"),
    ("trace.untraced_frac", "fraction"),
    ("trace_overhead", "x"),
)


class Tally:
    """Exact counters taken from wrapped return values and the kernel."""

    def __init__(self) -> None:
        self.matches = 0
        self.scanned = 0
        self.sim_steps = 0
        self.depth = 0

    def on_match(self, result: Any) -> None:
        """``post_recv``/``incoming`` return ``(hit or None, scanned)``."""
        hit, scanned = result
        self.scanned += scanned
        if hit is not None:
            self.matches += 1


def install(rec: SpanRecorder, tally: Tally) -> Patcher:
    """Wrap every entry point; the caller must ``restore()`` afterwards."""
    patcher = Patcher(rec)
    for layer, target in ENTRY_POINTS:
        patcher.wrap(layer, target)
    for name in ("post_recv", "incoming"):
        patcher.wrap("mpi.matching",
                     f"repro.mpi.matching:MatchingEngine.{name}",
                     observe=tally.on_match)
    patcher.wrap_spawn(layer_of_file)
    _count_steps(patcher, tally)
    return patcher


def _count_steps(patcher: Patcher, tally: Tally) -> None:
    """Add each kernel run's ``Simulator.steps`` delta to the tally.

    Wraps the already-traced ``run``/``run_steps`` once more, outside the
    span, so the count is exact and costs the span nothing.
    """
    from repro.sim.calendar import CalendarSimulator
    from repro.sim.core import Simulator
    for cls, name in ((Simulator, "run"), (Simulator, "run_steps"),
                      (CalendarSimulator, "run_steps")):
        inner = cls.__dict__[name]

        def counted(sim, *args, _inner=inner, **kwargs):
            if tally.depth:  # nested kernel call: the outer one counts
                return _inner(sim, *args, **kwargs)
            tally.depth += 1
            before = sim.steps
            try:
                return _inner(sim, *args, **kwargs)
            finally:
                tally.depth -= 1
                tally.sim_steps += sim.steps - before
        patcher.replace(cls, name, counted)


def layer_of(span_name: str) -> str:
    return span_name.partition(":")[0]


def layer_self_ms(rec: SpanRecorder) -> dict[str, float]:
    """Self time per layer, in ms."""
    out: dict[str, float] = {}
    for nid, name in enumerate(rec.names):
        layer = layer_of(name)
        out[layer] = out.get(layer, 0.0) + rec.self_ns[nid] / 1e6
    return out


def layer_calls(rec: SpanRecorder) -> dict[str, int]:
    """Entry-point invocations per layer (task resumptions excluded)."""
    out: dict[str, int] = {}
    for nid, name in enumerate(rec.names):
        if name.endswith(":task"):
            continue
        layer = layer_of(name)
        out[layer] = out.get(layer, 0) + rec.calls[nid]
    return out


def _mean_ms(durations_ns: list[int]) -> float:
    return statistics.fmean(durations_ns) / 1e6 if durations_ns else 0.0


def _median_ms(durations_ns: list[int]) -> float:
    return statistics.median(durations_ns) / 1e6 if durations_ns else 0.0


def speed(res) -> dict[str, float]:
    """Throughput, and the median and 95th percentile (linear
    interpolation) of the latency samples, of an untraced run."""
    samples = res.samples_ms
    out = {"throughput_per_s": res.units / res.wall_s if res.wall_s else 0.0,
           "latency_ms_p50": 0.0, "latency_ms_p95": 0.0}
    if len(samples) >= 2:
        out["latency_ms_p50"] = statistics.median(samples)
        out["latency_ms_p95"] = statistics.quantiles(
            samples, n=20, method="inclusive")[18]
    return out


def per_layer_metrics(rec: SpanRecorder, tally: Tally,
                      setup_rec: SpanRecorder, *, msgs: int, scenarios: int,
                      wall_s: float, untraced_s: float, timed,
                      serve: Optional[dict[str, float]] = None
                      ) -> dict[str, float]:
    """Every per-layer metric of one traced run.

    ``rec`` traced the run and ``setup_rec`` its set-up. ``msgs``
    normalises the ``*_per_msg`` metrics and ``scenarios`` the
    ``*_per_scenario`` ones; a workload without either passes 0 and the
    metrics read 0. ``timed`` is the result of an untraced, time-boxed
    run (throughput and latency). ``serve`` carries the ``/metrics`` and job-trace numbers of the
    ``serve`` workload.
    """
    self_ms = layer_self_ms(rec)
    calls = layer_calls(rec)

    def per_msg_us(layer: str) -> float:
        return self_ms.get(layer, 0.0) * 1e3 / msgs if msgs else 0.0

    def per_msg_calls(layer: str) -> float:
        return calls.get(layer, 0) / msgs if msgs else 0.0

    def per_scen(value: float) -> float:
        return value / scenarios if scenarios else 0.0

    covered_s = rec.covered_ns / 1e9
    out = {
        **speed(timed),
        "sim.events_per_msg": tally.sim_steps / msgs if msgs else 0.0,
        "sim.self_us_per_msg": per_msg_us("sim"),
        "mpi.calls_per_msg": per_msg_calls("mpi"),
        "mpi.self_us_per_msg": per_msg_us("mpi"),
        "mpi.matching.calls_per_msg": per_msg_calls("mpi.matching"),
        "mpi.matching.self_us_per_msg": per_msg_us("mpi.matching"),
        "mpi.matching.scanned_per_match":
            tally.scanned / tally.matches if tally.matches else 0.0,
        "netsim.calls_per_msg": per_msg_calls("netsim"),
        "netsim.self_us_per_msg": per_msg_us("netsim"),
        "runtime.world_build_ms":
            _mean_ms(rec.durations_ns("runtime:World.__init__")),
        "bench.self_us_per_msg": per_msg_us("bench"),
        "obs.calls_per_msg": per_msg_calls("obs"),
        "obs.self_us_per_msg": per_msg_us("obs"),
        "obs.export_ms":
            _mean_ms(rec.durations_ns("obs:export_chrome_trace")),
        "check.calls_per_scenario": per_scen(calls.get("check", 0)),
        "check.self_ms_per_scenario": per_scen(self_ms.get("check", 0.0)),
        "snap.self_ms_per_scenario": per_scen(self_ms.get("snap", 0.0)),
        "faults.calls_per_scenario": per_scen(calls.get("faults", 0)),
        "faults.self_ms_per_scenario": per_scen(self_ms.get("faults", 0.0)),
        "apps.self_ms_per_scenario": per_scen(self_ms.get("apps", 0.0)),
        "scenarios.sample_ms":
            _mean_ms(setup_rec.durations_ns("scenarios:sample_scenarios")),
        "serve.http_ms_p50":
            _median_ms(rec.durations_ns("serve:ServeClient.request")),
        "serve.polls_per_job": 0.0,
        "serve.cache.hit_ratio": 0.0,
        "serve.point_exec_ms_p50": 0.0,
        "serve.point.requeued": 0.0,
        "serve.point.failed": 0.0,
        "trace.untraced_frac":
            max(0.0, wall_s - covered_s) / wall_s if wall_s else 0.0,
        "trace_overhead": wall_s / untraced_s if untraced_s else 0.0,
    }
    if serve:
        out.update(serve)
    return out


def exact_counts(rec: SpanRecorder, tally: Tally) -> dict[str, int]:
    """Every count a traced run makes, by span name: must repeat exactly
    for one seed (host times need not). The ``serve`` client's calls are
    left out: how often it polls depends on how fast jobs finish."""
    counts = {name: rec.calls[nid] for nid, name in enumerate(rec.names)
              if rec.calls[nid] and layer_of(name) != "serve"}
    counts["tally.matches"] = tally.matches
    counts["tally.scanned"] = tally.scanned
    counts["tally.sim_steps"] = tally.sim_steps
    return counts
