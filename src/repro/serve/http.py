"""Stdlib-only HTTP API over the orchestrator.

One asyncio streams server, HTTP/1.1, ``Connection: close`` — no
framework, no dependency beyond the interpreter. The surface:

========================== =============================================
``GET  /healthz``            liveness: workers (with pids), queue, cache
``GET  /metrics``            metrics-registry snapshot (JSON)
``POST /jobs``               submit ``{"kind": ..., "spec": {...}}``
                             (JSON or YAML body) → ``201`` + status doc;
                             ``413`` above ``MAX_JOB_POINTS`` points
``GET  /jobs``               status documents for all jobs
``GET  /jobs/<id>``          one job's live progress
``GET  /jobs/<id>/result``   full result doc; ``409`` while running
``GET  /jobs/<id>/trace``    Chrome-trace JSON of the job's executions
``POST /shutdown``           stop the service loop cleanly
========================== =============================================

Job documents are the same shape on the wire as on the CLI: ``kind``
names an expansion from :data:`repro.serve.points.JOB_KINDS` and
``spec`` is its parameter mapping, so a sweep/campaign YAML file can be
POSTed as-is by ``python -m repro submit``.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Optional

import yaml

from ..errors import JobTooLargeError, ServeError
from ..store import canonical_json
from .orchestrator import Orchestrator

__all__ = ["HttpApi", "parse_job_document"]

_MAX_BODY = 8 * 1024 * 1024


def parse_job_document(body: bytes) -> tuple[str, dict]:
    """Parse a POST /jobs body (JSON or YAML) into ``(kind, spec)``."""
    try:
        doc = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        try:
            doc = yaml.safe_load(body.decode("utf-8", "replace"))
        except yaml.YAMLError as exc:
            raise ServeError(f"job body is neither JSON nor YAML: {exc}"
                             ) from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("kind"), str):
        raise ServeError(
            "job document must be a mapping with a 'kind' string "
            "(e.g. {'kind': 'sweep', 'spec': {...}})")
    spec = doc.get("spec", {})
    if not isinstance(spec, dict):
        raise ServeError("job 'spec' must be a mapping")
    return doc["kind"], spec


class HttpApi:
    """The HTTP front of one :class:`Orchestrator`.

    Runs on the same event loop as the orchestrator, so handlers may
    call its synchronous methods directly — there is exactly one thread
    touching scheduler state.
    """

    def __init__(self, orchestrator: Orchestrator, host: str = "127.0.0.1"):
        self.orchestrator = orchestrator
        self._host = host
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        #: Set when a POST /shutdown arrives; the service loop awaits it.
        self.shutdown_requested: asyncio.Event = asyncio.Event()

    async def start(self) -> int:
        """Bind the API port (ephemeral by default); returns it."""
        self._server = await asyncio.start_server(
            self._handle, self._host, 0)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def stop(self) -> None:
        """Close the API server."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # -- request plumbing --------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            status, doc = await self._dispatch(reader)
        except JobTooLargeError as exc:
            status, doc = 413, {"error": str(exc)}
        except ServeError as exc:
            status, doc = 400, {"error": str(exc)}
        except (ConnectionError, asyncio.IncompleteReadError, ValueError,
                asyncio.LimitOverrunError) as exc:
            status, doc = 400, {"error": f"bad request: {exc}"}
        body = canonical_json(doc).encode("utf-8")
        reasons = {200: "OK", 201: "Created", 400: "Bad Request",
                   404: "Not Found", 405: "Method Not Allowed",
                   409: "Conflict", 413: "Payload Too Large",
                   500: "Internal Server Error"}
        head = (f"HTTP/1.1 {status} {reasons.get(status, 'OK')}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n").encode("ascii")
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionError, OSError):
            pass  # client went away; nothing to clean up
        finally:
            writer.close()

    async def _dispatch(self, reader: asyncio.StreamReader
                        ) -> tuple[int, Any]:
        request = await reader.readuntil(b"\r\n\r\n")
        line, _, header_blob = request.partition(b"\r\n")
        try:
            method, path, _version = line.decode("ascii").split(" ", 2)
        except ValueError as exc:
            raise ServeError(f"malformed request line {line!r}") from exc
        length = 0
        for header in header_blob.decode("ascii", "replace").split("\r\n"):
            name, _, value = header.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        if length > _MAX_BODY:
            raise ServeError(f"body of {length} bytes exceeds the "
                             f"{_MAX_BODY}-byte bound")
        body = await reader.readexactly(length) if length else b""
        return self._route(method.upper(), path.rstrip("/") or "/", body)

    # -- routing -----------------------------------------------------------
    def _route(self, method: str, path: str, body: bytes) -> tuple[int, Any]:
        orch = self.orchestrator
        if path == "/healthz" and method == "GET":
            return 200, orch.healthz()
        if path == "/metrics" and method == "GET":
            return 200, {"metrics": orch.metrics.snapshot(),
                         "cache": orch.cache_stats()}
        if path == "/shutdown" and method == "POST":
            self.shutdown_requested.set()
            return 200, {"ok": True, "shutting_down": True}
        if path == "/jobs" and method == "POST":
            kind, spec = parse_job_document(body)
            job_id = orch.submit(kind, spec)
            return 201, orch.job_status(job_id)
        if path == "/jobs" and method == "GET":
            return 200, {"jobs": orch.list_jobs()}
        if path.startswith("/jobs/"):
            if method != "GET":
                return 405, {"error": f"{method} not allowed on {path}"}
            parts = path.split("/")  # ['', 'jobs', '<id>', ('result'|...)]
            job_id = parts[2]
            sub = parts[3] if len(parts) > 3 else None
            if job_id not in orch.jobs:
                return 404, {"error": f"no such job {job_id!r}"}
            if sub is None:
                return 200, orch.job_status(job_id)
            if sub == "result":
                status = orch.job_status(job_id)
                if status["status"] == "running":
                    # status carries error=None; message must win the merge
                    return 409, {**status, "error": "job still running"}
                if status["status"] == "failed":
                    return 500, {**status, "error": status["error"]}
                return 200, orch.job_result(job_id)
            if sub == "trace":
                return 200, orch.job_trace(job_id)
            return 404, {"error": f"unknown job endpoint {sub!r}"}
        return 404, {"error": f"no route for {method} {path}"}
