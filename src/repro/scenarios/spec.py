"""Declarative scenario specs: one YAML document = one reproducible run.

A :class:`ScenarioSpec` composes everything that defines a chaos-campaign
run — which application proxy and mechanism, the cluster shape and
interconnect topology, the fault plan, the reliable-transport tuning, and
the background-traffic shape — plus the seeds that make the whole thing
replay byte-identically. Specs are eagerly validated at construction
(unknown apps, impossible mechanisms, malformed fault plans and traffic
shapes all fail before any simulation starts) and round-trip exactly
through ``to_dict``/``from_dict`` and YAML, which is what makes shrunken
failure artifacts self-contained: the YAML in the artifact *is* the
repro.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Optional

import yaml

from ..errors import (
    FaultPlanError,
    MpiError,
    ScenarioError,
    TopologyError,
    TrafficConfigError,
)
from ..faults.plan import FaultPlan
from ..faults.transport import TransportParams
from ..netsim.topology import ClusterSpec
from ..netsim.traffic import TrafficShape

__all__ = ["ScenarioSpec"]


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-determined chaos scenario.

    Everything a run needs is in the spec: the same spec always produces
    the same simulation (same event order, same state digests), so specs
    are both the campaign sampler's output and the shrinker's search
    space.
    """

    #: Registered application adapter name (see :mod:`repro.scenarios.apps`).
    app: str
    #: Communication mechanism, one of the app's supported set.
    mechanism: str
    #: Master seed: world RNG streams and the fault injector.
    seed: int = 0
    #: Cluster nodes (one MPI rank per node, as in the paper's runs).
    nodes: int = 2
    #: Threads per rank.
    threads: int = 2
    #: Interconnect topology name (``direct`` = legacy single-hop fabric).
    topology: str = "direct"
    #: Topology generator parameters (``k``, ``dims``, ...).
    topology_params: dict[str, Any] = field(default_factory=dict)
    #: App-specific size/iteration knobs (adapter defaults fill the rest).
    app_params: dict[str, Any] = field(default_factory=dict)
    #: Fault plan, or None for a lossless fabric.
    faults: Optional[FaultPlan] = None
    #: Reliable-transport tuning override (None = library defaults).
    transport: Optional[TransportParams] = None
    #: Background-traffic shape, or None for an idle fabric.
    traffic: Optional[TrafficShape] = None
    #: Seed of the background-flow planner and arrival processes.
    traffic_seed: int = 0
    #: Optional human-readable label (never affects execution).
    name: str = ""

    def __post_init__(self):
        from .apps import get_app  # late: apps imports this module
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ScenarioError(f"seed must be an int, got {self.seed!r}")
        if self.nodes < 1 or self.threads < 1:
            raise ScenarioError(
                f"nodes/threads must be positive, got nodes={self.nodes}, "
                f"threads={self.threads}")
        for which, value in (("faults", self.faults),
                             ("transport", self.transport),
                             ("traffic", self.traffic)):
            expected = {"faults": FaultPlan, "transport": TransportParams,
                        "traffic": TrafficShape}[which]
            if value is not None and not isinstance(value, expected):
                raise ScenarioError(
                    f"{which} must be a {expected.__name__} or None, got "
                    f"{type(value).__name__}")
        adapter = get_app(self.app)  # raises ScenarioError if unknown
        if self.mechanism not in adapter.mechanisms:
            raise ScenarioError(
                f"app {self.app!r} has no mechanism {self.mechanism!r}; "
                f"choose from {adapter.mechanisms}")
        try:
            # Builds (and discards) the topology's switches and links,
            # O(links): validates the generator parameters and host
            # capacity eagerly. Routes are not walked here.
            ClusterSpec(nodes=self.nodes, threads_per_proc=self.threads,
                        topology=self.topology, **self.topology_params)
        except TopologyError as exc:
            raise ScenarioError(f"bad topology for scenario: {exc}") from exc
        adapter.validate(self)

    # -- construction ------------------------------------------------------
    def with_(self, **kwargs: Any) -> "ScenarioSpec":
        """A copy with the given fields replaced (fully re-validated)."""
        return replace(self, **kwargs)

    def describe(self) -> str:
        """One-line human summary."""
        bits = [f"{self.app}/{self.mechanism}",
                f"{self.nodes}x{self.threads}", f"seed={self.seed}"]
        if self.topology != "direct":
            bits.append(self.topology)
        if self.faults is not None:
            bits.append(self.faults.describe())
        if self.traffic is not None:
            bits.append(f"bg:{self.traffic.kind}x{self.traffic.flows}")
        return " ".join(bits)

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-data form; round-trips exactly through :meth:`from_dict`."""
        return {
            "app": self.app, "mechanism": self.mechanism, "seed": self.seed,
            "nodes": self.nodes, "threads": self.threads,
            "topology": self.topology,
            "topology_params": _plain(self.topology_params),
            "app_params": _plain(self.app_params),
            "faults": self.faults.to_dict() if self.faults else None,
            "transport": asdict(self.transport) if self.transport else None,
            "traffic": self.traffic.to_dict() if self.traffic else None,
            "traffic_seed": self.traffic_seed,
            "name": self.name,
        }

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "ScenarioSpec":
        """Rebuild (and re-validate) a spec from its ``to_dict()`` form."""
        if not isinstance(data, dict):
            raise ScenarioError(
                f"scenario must be a mapping, got {type(data).__name__}")
        known = {f.name for f in fields(ScenarioSpec)}
        unknown = set(data) - known
        if unknown:
            raise ScenarioError(
                f"unknown scenario keys: {sorted(unknown)}")
        data = dict(data)
        try:
            if data.get("faults") is not None:
                data["faults"] = FaultPlan.from_dict(data["faults"])
            if data.get("transport") is not None:
                data["transport"] = TransportParams(**data["transport"])
            if data.get("traffic") is not None:
                data["traffic"] = TrafficShape.from_dict(data["traffic"])
        except (FaultPlanError, TrafficConfigError, TypeError) as exc:
            raise ScenarioError(f"bad scenario component: {exc}") from exc
        # YAML has no tuples: rehydrate list-valued topology params (torus
        # dims) into the tuples the generators expect.
        params = dict(data.get("topology_params") or {})
        for key, value in params.items():
            if isinstance(value, list):
                params[key] = tuple(value)
        data["topology_params"] = params
        data["app_params"] = dict(data.get("app_params") or {})
        try:
            return ScenarioSpec(**data)
        except MpiError:
            raise
        except TypeError as exc:
            raise ScenarioError(f"malformed scenario: {exc}") from exc

    def to_yaml(self) -> str:
        """The spec as a YAML document (stable key order)."""
        return yaml.safe_dump(self.to_dict(), sort_keys=True,
                              default_flow_style=False)

    @staticmethod
    def from_yaml(text: str) -> "ScenarioSpec":
        """Parse a spec from :meth:`to_yaml` output."""
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ScenarioError(f"unparseable scenario YAML: {exc}") from exc
        return ScenarioSpec.from_dict(data)

    def save(self, path: str) -> None:
        """Write the spec as a YAML file."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_yaml())

    @staticmethod
    def load(path: str) -> "ScenarioSpec":
        """Read a spec from a YAML file."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return ScenarioSpec.from_yaml(fh.read())
        except OSError as exc:
            raise ScenarioError(
                f"cannot read scenario file {path!r}: {exc}") from exc


def _plain(mapping: dict[str, Any]) -> dict[str, Any]:
    """Copy with numpy scalars and tuples reduced to YAML-native types."""
    out: dict[str, Any] = {}
    for key, value in mapping.items():
        if isinstance(value, tuple):
            value = list(value)
        elif hasattr(value, "item") and not isinstance(value, (str, bytes)):
            value = value.item()
        out[key] = value
    return out
