"""Service assembly: orchestrator + HTTP API + supervised local workers.

:func:`run_service` is the whole service in one call (the CLI's
``python -m repro serve`` is a thin wrapper): start the orchestrator's
worker port and the HTTP API on one event loop, fork the local worker
pool, supervise it (a dead worker is respawned, its in-flight point
having already been requeued by the orchestrator), and announce
readiness by atomically writing ``state_dir/serve.json`` — the
discovery file tests and ``repro submit`` read to find the URL.

Worker-pool sizing is the fork pool's lesson applied to the service
(:func:`repro.bench.parallel.auto_jobs`): never more workers than host
CPUs unless ``oversubscribe=True`` — on the 1-CPU CI host, extra
workers only add dispatch overhead.

:func:`spawn_service` forks the service into a child process and waits
for the discovery file and for the workers it announces to attach,
returning a :class:`ServiceHandle` that tests use to ``kill -9`` the
service (crash-resume) or individual workers (requeue), then restart on
the same ``state_dir``.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import multiprocessing
import os
import signal
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..bench.parallel import auto_jobs
from ..errors import ServeError
from ..store import write_atomic
from .client import ServeClient
from .http import HttpApi
from .orchestrator import Orchestrator
from .worker import spawn_worker

__all__ = ["ServiceHandle", "run_service", "spawn_service"]

_DISCOVERY = "serve.json"


async def _serve(state_dir: str, workers: Optional[int],
                 oversubscribe: bool, heartbeat: float,
                 heartbeat_timeout: float, host: str,
                 announce: Callable[[str], None]) -> None:
    orch = Orchestrator(state_dir, heartbeat_timeout=heartbeat_timeout,
                        host=host)
    worker_port = await orch.start()
    api = HttpApi(orch, host=host)
    port = await api.start()
    n = 0 if workers == 0 else auto_jobs(requested=workers,
                                         oversubscribe=oversubscribe)
    seq = itertools.count()
    procs = [spawn_worker(host, worker_port, f"w{next(seq)}", heartbeat)
             for _ in range(n)]
    url = f"http://{host}:{port}"
    write_atomic(os.path.join(state_dir, _DISCOVERY), json.dumps(
        {"url": url, "pid": os.getpid(), "worker_port": worker_port,
         "workers": n}, sort_keys=True))
    announce(f"serving on {url} ({n} worker(s), state={state_dir})")

    async def supervise() -> None:
        # A worker that died (crash, kill -9) already had its in-flight
        # point requeued by the orchestrator; respawning just restores
        # execution capacity.
        while True:
            for i, proc in enumerate(procs):
                if proc is not None and not proc.is_alive():
                    proc.join()
                    procs[i] = spawn_worker(host, worker_port,
                                            f"w{next(seq)}", heartbeat)
            await asyncio.sleep(0.2)

    supervisor = asyncio.ensure_future(supervise()) if procs else None
    try:
        await api.shutdown_requested.wait()
    finally:
        if supervisor is not None:
            supervisor.cancel()
        await orch.stop()
        await api.stop()
        for proc in procs:
            if proc is not None and proc.is_alive():
                proc.terminate()
        for proc in procs:
            if proc is not None:
                proc.join(timeout=5)
        try:
            os.remove(os.path.join(state_dir, _DISCOVERY))
        except OSError:
            pass  # crash-killed earlier run already removed it


def run_service(state_dir: str, workers: Optional[int] = None,
                oversubscribe: bool = False, heartbeat: float = 0.5,
                heartbeat_timeout: float = 5.0, host: str = "127.0.0.1",
                announce: Optional[Callable[[str], None]] = None) -> None:
    """Run the service until a ``POST /shutdown`` arrives (blocking).

    ``workers=None`` auto-sizes the local pool to the host
    (:func:`~repro.bench.parallel.auto_jobs`); an explicit count is
    capped at the CPU count unless ``oversubscribe=True``; ``workers=0``
    starts no local pool (external workers may still attach to the
    worker port published in ``serve.json``).
    """
    os.makedirs(state_dir, exist_ok=True)
    asyncio.run(_serve(state_dir, workers, oversubscribe, heartbeat,
                       heartbeat_timeout, host, announce or (lambda _: None)))


@dataclass
class ServiceHandle:
    """A forked service process and how to reach (and kill) it."""

    state_dir: str
    url: str
    pid: int
    proc: multiprocessing.process.BaseProcess

    def client(self) -> ServeClient:
        """An HTTP client bound to this service."""
        return ServeClient(self.url)

    def worker_pids(self) -> list[int]:
        """Pids of the currently attached workers (for kill tests)."""
        workers = self.client().healthz()["workers"]
        return sorted(info["pid"] for info in workers.values()
                      if info.get("pid"))

    def alive(self) -> bool:
        """Whether the service process is still running."""
        return self.proc.is_alive()

    def kill(self) -> None:
        """``kill -9`` the service process (crash-resume testing)."""
        try:
            os.kill(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # already gone
        self.proc.join(timeout=10)

    def stop(self) -> None:
        """Clean shutdown via ``POST /shutdown``; joins the process."""
        try:
            self.client().shutdown()
        except (ServeError, OSError):
            pass  # already dead; join below still reaps it
        self.proc.join(timeout=10)
        if self.proc.is_alive():  # pragma: no cover - hung service
            self.kill()


def spawn_service(state_dir: str, workers: Optional[int] = None,
                  oversubscribe: bool = False, heartbeat: float = 0.5,
                  heartbeat_timeout: float = 5.0,
                  timeout: float = 30.0) -> ServiceHandle:
    """Fork :func:`run_service` and wait until its workers are attached.

    Returns once ``state_dir/serve.json`` names the child's URL *and*
    ``/healthz`` lists as many attached workers as that file announces,
    so the caller can immediately submit jobs or count worker pids.
    Raises :class:`~repro.errors.ServeError` if the child dies or is not
    ready within ``timeout`` seconds.
    """
    os.makedirs(state_dir, exist_ok=True)
    discovery = os.path.join(state_dir, _DISCOVERY)
    try:
        os.remove(discovery)
    except OSError:
        pass  # no stale file to clear
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError as exc:  # pragma: no cover - non-POSIX hosts
        raise ServeError("spawn_service needs the fork start method"
                         ) from exc
    proc = ctx.Process(
        target=run_service, args=(state_dir,),
        kwargs={"workers": workers, "oversubscribe": oversubscribe,
                "heartbeat": heartbeat,
                "heartbeat_timeout": heartbeat_timeout},
        name="repro-serve", daemon=False)
    proc.start()
    deadline = time.monotonic() + timeout
    handle: Optional[ServiceHandle] = None
    workers_announced = 0
    while time.monotonic() < deadline:
        if handle is None:
            doc: Optional[dict[str, Any]] = None
            try:
                with open(discovery, encoding="utf-8") as fh:
                    doc = json.load(fh)
            except (OSError, ValueError):
                doc = None  # not written (or mid-write) yet
            if doc and doc.get("pid") == proc.pid and doc.get("url"):
                handle = ServiceHandle(state_dir=state_dir, url=doc["url"],
                                       pid=proc.pid, proc=proc)
                workers_announced = int(doc.get("workers", 0))
        if handle is not None:
            # Workers attach after serve.json is written: wait for them.
            try:
                healthz = handle.client().healthz()
                if len(healthz["workers"]) >= workers_announced:
                    return handle
            except ServeError:
                pass  # not answering; the liveness check below decides
        if not proc.is_alive():
            raise ServeError(
                f"service process died during startup "
                f"(exitcode {proc.exitcode})")
        time.sleep(0.005)
    proc.terminate()
    raise ServeError(f"service did not become ready in {timeout}s")
