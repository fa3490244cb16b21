"""Versioned snapshot records and their on-disk form.

A :class:`Snapshot` binds a *recipe* (how to rebuild the simulation: the
program or builder, its arguments, the seed) to the canonical state tree
captured at one kernel step and that tree's digest. Restore rebuilds from
the recipe and deterministically fast-forwards to the step — the digest
then proves the rebuilt world is byte-identical (see
:mod:`repro.snap.restore` and docs/snapshot.md for what is and isn't
captured).

Snapshot files are deterministic: saving the same snapshot twice yields
identical bytes (no host timestamps), so files themselves can be compared
byte-for-byte in tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

from ..errors import SnapshotFormatError
from ..store import write_atomic
from .state import STATE_FORMAT_VERSION, capture_state, state_digest

__all__ = ["SNAP_VERSION", "Snapshot", "take_snapshot", "save_snapshot",
           "load_snapshot"]

#: On-disk format version. Bump on any incompatible change to the file
#: layout *or* the state-tree layout (state trees carry their own
#: ``format`` field; a digest is only comparable within one version).
#: v2: state trees gained the ``topology`` subtree (state format v2).
SNAP_VERSION = 2


@dataclass
class Snapshot:
    """One captured simulation state plus the recipe to rebuild it."""

    step: int
    clock: float
    seed: int
    state: dict[str, Any]
    digest: str
    recipe: dict[str, Any] = field(default_factory=dict)
    version: int = SNAP_VERSION

    def summary(self) -> str:
        """One-line human description."""
        return (f"snapshot v{self.version} step={self.step} "
                f"t={self.clock:.9f}s digest={self.digest[:12]}")


def take_snapshot(world: Any,
                  recipe: Optional[dict[str, Any]] = None) -> Snapshot:
    """Capture the world's current state as a :class:`Snapshot`."""
    state = capture_state(world)
    return Snapshot(step=world.sim.steps, clock=world.sim._now,
                    seed=world.rng.seed, state=state,
                    digest=state_digest(state), recipe=dict(recipe or {}))


def save_snapshot(snap: Snapshot, path: str) -> str:
    """Write a snapshot atomically (tmp + rename); returns ``path``."""
    payload = {
        "version": snap.version,
        "state_format": STATE_FORMAT_VERSION,
        "step": snap.step,
        "clock": snap.clock,
        "seed": snap.seed,
        "digest": snap.digest,
        "recipe": snap.recipe,
        "state": snap.state,
    }
    write_atomic(path, json.dumps(payload, sort_keys=True,
                                  separators=(",", ":")))
    return path


def load_snapshot(path: str) -> Snapshot:
    """Read and integrity-check a snapshot file.

    Raises :class:`~repro.errors.SnapshotFormatError` on version skew or
    corruption (the stored digest is recomputed from the stored state).
    """
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SnapshotFormatError(f"unreadable snapshot {path!r}: {exc}")
    version = payload.get("version")
    if version != SNAP_VERSION:
        raise SnapshotFormatError(
            f"snapshot {path!r} has format version {version!r}; this build "
            f"reads version {SNAP_VERSION} (see docs/snapshot.md)")
    if payload.get("state_format") != STATE_FORMAT_VERSION:
        raise SnapshotFormatError(
            f"snapshot {path!r} has state-tree format "
            f"{payload.get('state_format')!r}; this build captures "
            f"{STATE_FORMAT_VERSION}")
    for key in ("step", "clock", "seed", "digest", "state"):
        if key not in payload:
            raise SnapshotFormatError(f"snapshot {path!r} missing {key!r}")
    digest = state_digest(payload["state"])
    if digest != payload["digest"]:
        raise SnapshotFormatError(
            f"snapshot {path!r} is corrupt: stored digest "
            f"{payload['digest'][:12]} != recomputed {digest[:12]}")
    return Snapshot(step=payload["step"], clock=payload["clock"],
                    seed=payload["seed"], state=payload["state"],
                    digest=payload["digest"],
                    recipe=payload.get("recipe", {}),
                    version=version)
