"""Point kinds and job expansion: the service's unit of work.

A *point* is one self-contained simulation — exactly the unit
:func:`repro.bench.parallel.run_points` fans across a fork pool. Here
the same unit is named (a *point kind*), executed through one registry
(:func:`execute_point`) whether it runs in-process, in a local worker or
on a remote host, and always JSON-canonicalized, so every execution path
returns byte-identical data.

A *job* is a named expansion into points (:func:`expand_job`):

``sweep``
    Cartesian product of ``spec["params"]`` over the message-rate
    microbenchmark (the Fig 1(a) sweep as a service).
``campaign``
    ``sample_scenarios(seed, n, apps)`` — the chaos campaign's scenario
    list, one scenario per point.
``scenarios``
    An explicit list of :class:`~repro.scenarios.spec.ScenarioSpec`
    dicts (e.g. parsed from YAML documents).
``selftest``
    Tiny deterministic arithmetic points (optionally sleepy or failing)
    used by the protocol tests and the smoke job.

Expansion is deterministic: the same job document always yields the
same point list in the same order, which is what lets a restarted
orchestrator rebuild its queue from job manifests plus the result cache.
"""

from __future__ import annotations

import inspect
import itertools
import math
import time
from typing import Any, Callable

from ..bench.memo import MEMO_VERSION
from ..bench.msgrate import MsgRateConfig, run_msgrate
from ..errors import JobTooLargeError, MpiUsageError, ServeError
from ..store import json_roundtrip

__all__ = ["POINT_KINDS", "JOB_KINDS", "MAX_JOB_POINTS",
           "SERVE_CACHE_VERSION", "execute_point", "expand_job",
           "msgrate_point", "scenario_point", "selftest_point",
           "serve_record"]

#: Result-cache version: embeds the memo/SNAP/STATE format versions, so a
#: format bump anywhere below invalidates every served result at once
#: (stale records never match again).
SERVE_CACHE_VERSION = f"serve1-{MEMO_VERSION}"


def serve_record(kind: str, point: dict) -> dict:
    """The result-cache record of one served point.

    Its :func:`~repro.store.content_key` names the point's file in the
    service's :class:`~repro.store.PointStore` and is the orchestrator's
    dedupe identity: two points share it only if their canonical
    ``(version, kind, parameters)`` JSON is byte-identical, in which case
    they *are* the same simulation.
    """
    return {"kind": "serve-result", "version": SERVE_CACHE_VERSION,
            "point_kind": kind, "point": point}


def msgrate_point(mode: str, cores: int, msgs_per_core: int = 64,
                  msg_bytes: int = 8, window: int = 16,
                  seed: int = 0) -> dict[str, Any]:
    """One message-rate sweep point (module-level: pool workers and
    service workers both import it by name)."""
    r = run_msgrate(MsgRateConfig(mode=mode, cores=cores,
                                  msgs_per_core=msgs_per_core,
                                  msg_bytes=msg_bytes, window=window,
                                  seed=seed))
    return {"rate": r.rate, "span": r.span, "messages": r.messages,
            "rate_Mmsgs": round(r.rate / 1e6, 2)}


def scenario_point(spec: dict) -> dict[str, Any]:
    """One chaos scenario, classified (see ``repro.scenarios.executor``)."""
    from ..scenarios.executor import run_scenario_dict
    return run_scenario_dict(spec)


def selftest_point(i: int, ms: float = 0.0, fail: bool = False) -> dict:
    """Deterministic arithmetic point for protocol tests and smoke runs.

    ``ms`` sleeps host milliseconds (a window for kill/stall tests);
    ``fail`` raises, exercising the error-result path.
    """
    if ms:
        time.sleep(ms / 1000.0)
    if fail:
        raise ValueError(f"selftest point {i} asked to fail")
    return {"i": i, "value": i * i}


#: Point kind registry: name -> point function taking ``**point``.
POINT_KINDS: dict[str, Callable[..., Any]] = {
    "msgrate": msgrate_point,
    "scenario": scenario_point,
    "selftest": selftest_point,
}


def execute_point(kind: str, point: dict) -> Any:
    """Run one point through its registered kind; JSON-canonical result.

    This is the single execution path shared by in-process runs, local
    fork-pool workers and socket-attached service workers — all three
    return byte-identical data for the same (kind, point).
    """
    fn = POINT_KINDS.get(kind)
    if fn is None:
        raise ServeError(f"unknown point kind {kind!r} "
                         f"(known: {', '.join(sorted(POINT_KINDS))})")
    return json_roundtrip(fn(**point))


# -- job expansion ---------------------------------------------------------
#: Most points one job may expand to. Expansion runs on the
#: orchestrator's event loop, so a job is counted before it is expanded
#: and refused (HTTP 413) above this.
MAX_JOB_POINTS = 4096

#: Parameters a sweep point may set: those of :func:`msgrate_point`.
SWEEP_PARAMS = tuple(inspect.signature(msgrate_point).parameters)


def _number(spec: dict, key: str, default: Any, kind: type = int) -> Any:
    """``spec[key]`` (``default`` if absent) converted by ``kind``.

    Every numeric field of a job document goes through here, so a value
    that is not a finite number fails at submit as a :class:`ServeError`
    (HTTP 400), never as a ``TypeError``/``OverflowError`` later.
    """
    value = spec.get(key, default)
    try:
        out = kind(value)
        if not math.isfinite(out):
            raise OverflowError
    except (TypeError, ValueError, OverflowError) as exc:
        raise ServeError(f"job field {key!r} must be a finite "
                         f"{kind.__name__}, got {value!r:.40}") from exc
    return out


def _check_size(kind: str, count: int) -> None:
    """Refuse a job of more than :data:`MAX_JOB_POINTS` points."""
    if count > MAX_JOB_POINTS:
        raise JobTooLargeError(f"{kind} job has {count} points; the limit "
                               f"is {MAX_JOB_POINTS}")


def _check_sweep_value(key: str, value: Any) -> None:
    """One sweep value, checked as :class:`MsgRateConfig` would check it."""
    if key != "mode" and (not isinstance(value, int)
                          or isinstance(value, bool)):
        raise ServeError(f"sweep param {key!r} takes integers, "
                         f"got {value!r}")
    try:
        MsgRateConfig(**{key: value})
    except MpiUsageError as exc:
        raise ServeError(f"sweep param {key!r}: {exc}") from exc


def _expand_sweep(spec: dict) -> tuple[str, list[dict]]:
    params = spec.get("params")
    if not isinstance(params, dict) or not params:
        raise ServeError("sweep job needs a non-empty 'params' mapping "
                         "(e.g. {'mode': [...], 'cores': [...]})")
    experiment = spec.get("experiment", "msgrate")
    if experiment != "msgrate":
        raise ServeError(f"unknown sweep experiment {experiment!r}")
    unknown = sorted(set(params) - set(SWEEP_PARAMS))
    if unknown:
        raise ServeError(f"unknown sweep param(s) {', '.join(unknown)} "
                         f"(known: {', '.join(SWEEP_PARAMS)})")
    missing = [k for k in ("mode", "cores") if k not in params]
    if missing:
        raise ServeError(f"sweep job needs param(s) {', '.join(missing)}")
    # Canonical (sorted) key order: a job document's expansion must not
    # depend on mapping key order, which JSON/YAML round-trips (e.g. a
    # client serializing with sort_keys) do not preserve.
    keys = sorted(params)
    values = [params[k] if isinstance(params[k], list) else [params[k]]
              for k in keys]
    _check_size("sweep", math.prod(len(v) for v in values))
    for key, options in zip(keys, values):
        for value in options:
            _check_sweep_value(key, value)
    points = [dict(zip(keys, combo))
              for combo in itertools.product(*values)]
    return "msgrate", points


def _expand_campaign(spec: dict) -> tuple[str, list[dict]]:
    from ..scenarios.sample import sample_scenarios
    seed = _number(spec, "seed", 0)
    n = _number(spec, "n", 0)
    if n < 1:
        raise ServeError("campaign job needs n >= 1 scenarios")
    _check_size("campaign", n)
    specs = sample_scenarios(seed, n, apps=spec.get("apps"))
    return "scenario", [{"spec": s.to_dict()} for s in specs]


def _expand_scenarios(spec: dict) -> tuple[str, list[dict]]:
    from ..scenarios.spec import ScenarioSpec
    raw = spec.get("specs")
    if not isinstance(raw, list) or not raw:
        raise ServeError("scenarios job needs a non-empty 'specs' list")
    _check_size("scenarios", len(raw))
    # Validate eagerly: a malformed spec fails at submit, not on a worker.
    points = [{"spec": ScenarioSpec.from_dict(d).to_dict()} for d in raw]
    return "scenario", points


def _expand_selftest(spec: dict) -> tuple[str, list[dict]]:
    n = _number(spec, "n", 0)
    if n < 1:
        raise ServeError("selftest job needs n >= 1 points")
    _check_size("selftest", n)
    ms = _number(spec, "ms", 0.0, float)
    if ms < 0:
        raise ServeError("selftest job needs ms >= 0")
    points: list[dict] = []
    for i in range(n):
        point: dict[str, Any] = {"i": i}
        if ms:
            point["ms"] = ms
        if spec.get("fail_at") == i:
            point["fail"] = True
        points.append(point)
    return "selftest", points


#: Job kind registry: name -> expansion into (point kind, point list).
JOB_KINDS: dict[str, Callable[[dict], tuple[str, list[dict]]]] = {
    "sweep": _expand_sweep,
    "campaign": _expand_campaign,
    "scenarios": _expand_scenarios,
    "selftest": _expand_selftest,
}


def expand_job(kind: str, spec: dict) -> tuple[str, list[dict]]:
    """Deterministically expand a job document into its point list.

    Returns ``(point_kind, points)``. The same ``(kind, spec)`` always
    expands to the same ordered list — resubmission and orchestrator
    restart both rely on it.
    """
    expander = JOB_KINDS.get(kind)
    if expander is None:
        raise ServeError(f"unknown job kind {kind!r} "
                         f"(known: {', '.join(sorted(JOB_KINDS))})")
    if not isinstance(spec, dict):
        raise ServeError(f"job spec must be a mapping, got "
                         f"{type(spec).__name__}")
    point_kind, points = expander(spec)
    return point_kind, [json_roundtrip(p) for p in points]
