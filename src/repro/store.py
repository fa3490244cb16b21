"""The one on-disk JSON layer: canonical encoding, content keys, atomic writes.

Serial, forked, checkpointed and served runs of the same point return
byte-identical results because they share one JSON encoding and one
point-record format, both defined here (standard library only):

- :func:`canonical_json` — sorted keys, compact separators, ``str()``
  for anything JSON cannot encode; the spelling of a document as a key,
  a wire frame or a stored record;
- :func:`content_key` — the first 24 hex digits of the SHA-256 of that
  spelling; it names point files and dedupes served points;
- :func:`json_roundtrip` — a result as JSON reads it back, so live,
  forked, served and stored results compare equal;
- :func:`write_atomic` — tmp file + ``os.replace``: a killed process
  leaves either the old file or the new one, never half of one;
- :class:`PointStore` — one ``point-<key>.json`` file per point holding
  ``{"point": record, "result": ...}``, the record verified on load.

Each caller keeps its own text format (``summary.json`` stays indented,
snapshot files keep their own encoding); the state digest's encoding is
:func:`repro.snap.state.canonical_json`, versioned separately. The file
formats are described in ``docs/performance.md`` ("On-disk formats").
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any

__all__ = ["PENDING", "PointStore", "canonical_json", "content_key",
           "json_roundtrip", "write_atomic"]

#: Sentinel for a point with no stored result (not yet computed).
PENDING = object()


def canonical_json(doc: Any) -> str:
    """``doc`` as canonical JSON: sorted keys, no spaces, ``default=str``."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      default=str)


def content_key(doc: Any) -> str:
    """Stable content key: SHA-256 of :func:`canonical_json`, 24 hex digits.

    Independent of mapping order and of the process that computes it.
    """
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()[:24]


def json_roundtrip(doc: Any) -> Any:
    """``doc`` as JSON reads it back (tuples become lists, ...)."""
    return json.loads(json.dumps(doc, default=str))


def write_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a pid-suffixed tmp file."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


class PointStore:
    """Per-point JSON results under ``directory``, keyed by content.

    ``save(point, result)`` writes ``point-<content_key(point)>.json``
    atomically; ``load(point)`` returns the stored result, or
    :data:`PENDING` when the file is missing, unreadable, or holds a
    different point (a key collision or a stale directory). Results must
    be JSON-serializable; floats round-trip exactly, so a result read
    back is byte-identical to the one computed.
    """

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, point: Any) -> str:
        return os.path.join(self.directory,
                            f"point-{content_key(point)}.json")

    def load(self, point: Any) -> Any:
        """The stored result for ``point``, or :data:`PENDING`."""
        try:
            with open(self._path(point), encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            return PENDING  # missing, or truncated by a full disk
        if (not isinstance(payload, dict)
                or payload.get("point") != json_roundtrip(point)):
            return PENDING
        return payload["result"]

    def save(self, point: Any, result: Any) -> None:
        """Atomically store ``result`` for ``point``."""
        write_atomic(self._path(point), canonical_json(
            {"point": json_roundtrip(point), "result": result}))

    def __len__(self) -> int:
        return sum(1 for name in os.listdir(self.directory)
                   if name.startswith("point-") and name.endswith(".json"))
