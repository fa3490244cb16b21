"""Snapshot/restore and deterministic record-replay.

The robustness primitive behind long deterministic campaigns (see
docs/snapshot.md): capture the full canonical state of a running
simulation (:func:`capture_state`), persist it versioned
(:class:`Snapshot`), prove restores byte-identical
(:func:`restore_snapshot`), jump a live run back to a parked fork
checkpoint (``python -m repro replay``), and locate the first step at
which two configurations diverge (:func:`first_divergence`).

The package imports only the session controller a ``World`` consults;
state capture, the snapshot format, bisection, replay, restore and the
fork store load on first access to one of their names.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports
from .session import (
    SnapController,
    default_snap_controller,
    recording,
    set_default_snap_controller,
)

if TYPE_CHECKING:  # pragma: no cover
    from .bisect import Divergence, first_divergence
    from .replay import ReplayController, ReplayResult, ReplayStop, \
        run_replay
    from .restore import fast_forward, restore_snapshot
    from .snapshot import SNAP_VERSION, Snapshot, load_snapshot, \
        save_snapshot, take_snapshot
    from .state import STATE_FORMAT_VERSION, canonical_json, \
        capture_state, diff_states, prune_state, state_digest

__getattr__, __dir__ = lazy_exports(__name__, {
    ".bisect": ("Divergence", "first_divergence"),
    ".replay": ("ReplayController", "ReplayResult", "ReplayStop",
                "run_replay"),
    ".restore": ("fast_forward", "restore_snapshot"),
    ".snapshot": ("SNAP_VERSION", "Snapshot", "load_snapshot",
                  "save_snapshot", "take_snapshot"),
    ".state": ("STATE_FORMAT_VERSION", "canonical_json", "capture_state",
               "diff_states", "prune_state", "state_digest"),
})

__all__ = [
    "SNAP_VERSION", "STATE_FORMAT_VERSION",
    "Snapshot", "take_snapshot", "save_snapshot", "load_snapshot",
    "capture_state", "canonical_json", "state_digest", "diff_states",
    "prune_state",
    "fast_forward", "restore_snapshot",
    "SnapController", "recording", "default_snap_controller",
    "set_default_snap_controller",
    "ReplayController", "ReplayResult", "ReplayStop", "run_replay",
    "Divergence", "first_divergence",
]
