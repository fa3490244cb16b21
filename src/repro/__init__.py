"""repro — a reproduction of "Lessons Learned on MPI+Threads Communication"
(Zambre & Chandramowlishwaran, SC 2022).

The package implements, from scratch and on a deterministic discrete-event
simulator, everything the paper's comparison rests on:

- a VCI-enabled, MPICH-flavoured MPI library (:mod:`repro.mpi`) with
  point-to-point, RMA, and collective communication, MPI-4.0 Info hints,
  **user-visible endpoints**, and **partitioned communication**;
- a NIC/fabric hardware model with limited hardware contexts
  (:mod:`repro.netsim`);
- the mechanism-mapping helpers the paper's lessons are about
  (:mod:`repro.mapping`): mirrored communicator maps, Listing-2 tag
  encodings, endpoint addressing, partition plans, and the Lesson-3
  resource formulas;
- application proxies (:mod:`repro.apps`): stencil halo exchange
  (hypre/Smilei/Pencil), a Legion-style event runtime and circuit
  simulation, Vite-style dynamic graph communication, NWChem's
  get-compute-update RMA pattern, and VASP-style multithreaded
  collectives;
- benchmark workloads (:mod:`repro.bench`) and the Table-I scope/usability
  analysis (:mod:`repro.analysis`);
- an observability subsystem (:mod:`repro.obs`): per-VCI/per-context
  metrics with contention histograms, plain-text reports, and Chrome-trace
  export. Pass ``World(metrics=MetricsRegistry(), tracer=Tracer())`` to
  instrument a run, or use ``python -m repro profile``;
- fault injection with reliable transport (:mod:`repro.faults`):
  per-seed-reproducible fault plans (message drop/dup/corrupt/delay, NIC
  context stalls, link flaps) and a sequencing/ACK/retransmission layer
  that keeps every MPI mechanism correct on a lossy fabric. Pass
  ``World(faults=FaultPlan(drop=0.05))``, or use ``python -m repro
  faults``.

Start-up cost: ``import repro`` loads only the simulation core, the Fig 1(a)
driver :mod:`repro.bench.msgrate` and what it needs (:mod:`repro.sim`,
:mod:`repro.mpi`, :mod:`repro.netsim`, :mod:`repro.runtime`,
:mod:`repro.obs`, :mod:`repro.mapping`). The tooling names in ``__all__``
-- the scenario/campaign API and the fault-plan classes -- are resolved on
first access, as are the checker, snapshot-tooling and sweep names of
:mod:`repro.check`, :mod:`repro.snap` and :mod:`repro.bench`. See
``docs/performance.md`` ("Start-up: what ``import repro`` loads").

Quick start::

    import numpy as np
    from repro import World

    world = World(num_nodes=2, procs_per_node=1)

    def rank0(proc):
        yield from proc.comm_world.Send(np.arange(4.0), dest=1, tag=0)

    def rank1(proc):
        buf = np.zeros(4)
        yield from proc.comm_world.Recv(buf, source=0, tag=0)

    world.run_all([world.procs[0].spawn(rank0(world.procs[0])),
                   world.procs[1].spawn(rank1(world.procs[1]))])
"""

from typing import TYPE_CHECKING

from ._lazy import lazy_exports
from .errors import (
    FaultPlanError,
    HintViolationError,
    InvalidHintError,
    MpiError,
    MpiUsageError,
    RmaSemanticsError,
    TagOverflowError,
    TopologyError,
    TransportError,
    TruncationError,
)
from .mpi import ANY_SOURCE, ANY_TAG, Communicator, Info, Request, Status
from .mpi.endpoints import Endpoint, comm_create_endpoints
from .netsim import ClusterSpec, NetworkConfig, register_topology
from .netsim.traffic import TrafficShape
from .obs import MetricsRegistry, export_chrome_trace
from .runtime import MpiProcess, Node, World
from .sim.trace import TraceCategory, Tracer
from . import bench  # noqa: F401  (loads the Fig 1(a) driver, bench.msgrate)

if TYPE_CHECKING:  # pragma: no cover
    from .faults import FaultPlan, TransportParams
    from .mpi.partitioned import precv_init, psend_init
    from .mpi.rma import win_create
    from .scenarios import ScenarioSpec, run_campaign, run_scenario, \
        sample_scenarios

__getattr__, __dir__ = lazy_exports(__name__, {
    ".faults": ("FaultPlan", "TransportParams"),
    ".mpi.partitioned": ("precv_init", "psend_init"),
    ".mpi.rma": ("win_create",),
    ".scenarios": ("ScenarioSpec", "run_campaign", "run_scenario",
                   "sample_scenarios"),
})

__version__ = "1.0.0"

__all__ = [
    "ANY_SOURCE", "ANY_TAG", "ClusterSpec", "Communicator", "Endpoint",
    "FaultPlan", "FaultPlanError", "HintViolationError", "Info",
    "InvalidHintError", "MetricsRegistry", "MpiError", "MpiProcess",
    "MpiUsageError", "NetworkConfig", "Node", "Request",
    "RmaSemanticsError", "ScenarioSpec", "Status", "TagOverflowError",
    "TopologyError", "TraceCategory", "Tracer", "TrafficShape",
    "TransportError", "TransportParams", "TruncationError",
    "World", "__version__", "comm_create_endpoints",
    "export_chrome_trace", "precv_init", "psend_init",
    "register_topology", "run_campaign", "run_scenario",
    "sample_scenarios", "win_create",
]
