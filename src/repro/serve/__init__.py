"""Simulation-as-a-service: shard sweep/campaign points across workers.

This package turns the local toolkit — :func:`repro.bench.parallel.run_points`,
the campaign runner and the content-keyed point store — into a
long-running service (see ``docs/serving.md``):

- :mod:`repro.serve.protocol` — the transport-agnostic worker protocol:
  length-prefixed JSON job/result/heartbeat frames over sockets, so
  points run on local processes today and remote hosts later;
- :mod:`repro.serve.points` — the unit of work: point kinds (msgrate
  sweep point, chaos scenario), deterministic job expansion, and the
  result-cache record (:func:`~repro.serve.points.serve_record`) each
  point is stored under in a :class:`repro.store.PointStore`, keyed by
  the canonical (point kind, parameters) JSON under a version string
  that embeds the snapshot format versions;
- :mod:`repro.serve.orchestrator` — the asyncio job queue/scheduler:
  shards points across workers, dedupes in-flight keys, serves warm
  cache hits, re-queues on worker death, resumes after its own death;
- :mod:`repro.serve.http` — the HTTP API (``POST /jobs``,
  ``GET /jobs/<id>``, ``.../result``, ``.../trace``);
- :mod:`repro.serve.service`/:mod:`repro.serve.client` — process
  wiring (``python -m repro serve``) and the blocking client used by
  ``repro submit`` / ``repro jobs``.
"""

from .client import ServeClient
from .orchestrator import Job, Orchestrator, PointTask
from .points import (
    SERVE_CACHE_VERSION,
    execute_point,
    expand_job,
    msgrate_point,
    serve_record,
)
from .protocol import (
    PROTOCOL_VERSION,
    FrameDecoder,
    encode_frame,
    read_frame,
    write_frame,
)
from .service import ServiceHandle, run_service, spawn_service
from .worker import worker_main

__all__ = [
    "PROTOCOL_VERSION", "FrameDecoder", "encode_frame", "read_frame",
    "write_frame",
    "SERVE_CACHE_VERSION", "execute_point", "expand_job", "msgrate_point",
    "serve_record",
    "Job", "Orchestrator", "PointTask",
    "ServeClient", "ServiceHandle", "run_service", "spawn_service",
    "worker_main",
]
