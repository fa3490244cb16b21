"""The on-disk JSON layer (``repro.store``): bytes pinned, one writer.

Every file kind the tree writes through the store is pinned by the
SHA-256 of its bytes, recorded before the per-module copies of the
canonical encoding and the atomic write were folded into ``store.py``.
A pin that moves means existing checkpoint, memo or serve-cache
directories stop hitting (or, for manifests, stop resuming) — bump the
relevant format version instead of re-pinning.
"""

import ast
import hashlib
import json
import os
from pathlib import Path

from repro.bench.memo import WarmPrefixExecutor
from repro.bench.parallel import run_points
from repro.scenarios.campaign import run_campaign
from repro.serve.orchestrator import Orchestrator
from repro.serve.points import serve_record
from repro.store import (
    PENDING,
    PointStore,
    canonical_json,
    content_key,
    json_roundtrip,
    write_atomic,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

POINT = {"mode": "everywhere", "cores": 2, "ratio": 0.1, "tag": "é"}
RESULT = {"rate": 12345.678, "span": 1e-06, "messages": 16,
          "pair": (1, 2), "none": None}

#: A ``run_points`` checkpoint of POINT -> RESULT as written before the
#: store existed: a directory of these must keep loading as hits.
LEGACY_POINT_FILE = (
    "point-7f20b7ccbc575797370f4166.json",
    b'{"point":{"cores":2,"mode":"everywhere","ratio":0.1,"tag":"\\u00e9"},'
    b'"result":{"messages":16,"none":null,"pair":[1,2],"rate":12345.678,'
    b'"span":1e-06}}')

#: file kind -> (file name, sha256 of its bytes).
PINS = {
    "run_points": ("point-7f20b7ccbc575797370f4166.json",
                   "6f7455def9c4901d6422861475e220e8"
                   "8c495f23ec478f1c185df524da1db283"),
    "warm-prefix": ("point-49ebb6c807c46511daf2c74b.json",
                    "2b81d6a8193cf65d3ef774f186682812"
                    "98926751d57811e1f29b2cadd6ccabae"),
    "memo-result": ("point-6d9b71758d69aa67a29ccddd.json",
                    "d89251e628390cb31f361f8f45d85b0b"
                    "272b20b6e29a7849c7326e0843370bf2"),
    "serve-result": ("point-4aab549b05df8764400114bb.json",
                     "12dbb3632c0f3d88a97ead061ac6ffaf"
                     "7fe0fbb0ef712be21a58d5e609c61790"),
    "campaign": ("campaign.json",
                 "752603abc6220b09032b5d0cdd71f06e"
                 "70954fc6263d81b0cfb318920ff46961"),
    "job": ("job-00001.json",
            "9d15c78339320c6b7ca8c5c6fed23bbc"
            "cfffaf3579321301cf688c3b47c227ba"),
}


def _pinned(kind: str, path: str) -> None:
    name, digest = PINS[kind]
    assert os.path.basename(path) == name
    with open(path, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == digest


def _only_file(directory) -> str:
    (name,) = os.listdir(directory)
    return os.path.join(directory, name)


def _square_point(**point):
    return dict(RESULT)


def test_run_points_checkpoint_bytes(tmp_path):
    run_points(_square_point, [POINT], checkpoint_dir=str(tmp_path))
    _pinned("run_points", _only_file(tmp_path))


def test_memo_record_bytes(tmp_path):
    executor = WarmPrefixExecutor(
        lambda x: x, lambda state, y: {"v": state + y / 3},
        prefix_keys=("x",), cache_dir=str(tmp_path),
        digest_fn=lambda state: f"d{state}")
    executor.run([{"x": 1, "y": 2}])
    for name in os.listdir(tmp_path):
        with open(tmp_path / name, encoding="utf-8") as fh:
            kind = json.load(fh)["point"]["kind"]
        _pinned(kind, str(tmp_path / name))
    assert len(os.listdir(tmp_path)) == 2


def test_serve_cache_record_bytes(tmp_path):
    PointStore(str(tmp_path)).save(
        serve_record("msgrate", {"mode": "everywhere", "cores": 2}), RESULT)
    _pinned("serve-result", _only_file(tmp_path))


def test_campaign_manifest_bytes(tmp_path):
    run_campaign(str(tmp_path), seed=7, n=1, shrink=False)
    _pinned("campaign", str(tmp_path / "campaign.json"))


def test_job_manifest_bytes(tmp_path):
    Orchestrator(str(tmp_path)).submit("selftest", {"n": 2, "ms": 1.5})
    _pinned("job", _only_file(tmp_path / "jobs"))


def test_legacy_point_file_loads_as_hit(tmp_path):
    name, data = LEGACY_POINT_FILE
    assert hashlib.sha256(data).hexdigest() == PINS["run_points"][1]
    (tmp_path / name).write_bytes(data)
    store = PointStore(str(tmp_path))
    assert store.load(POINT) == json_roundtrip(RESULT)
    assert len(store) == 1


def test_load_misses_on_corrupt_or_foreign_files(tmp_path):
    store = PointStore(str(tmp_path))
    path = tmp_path / f"point-{content_key(POINT)}.json"
    for text in ('{"point":', "[1, 2]",
                 canonical_json({"point": {"other": 1}, "result": 3})):
        path.write_text(text, encoding="utf-8")
        assert store.load(POINT) is PENDING


def test_write_atomic_leaves_no_tmp_file(tmp_path):
    path = str(tmp_path / "doc.json")
    write_atomic(path, "old")
    write_atomic(path, "new")
    assert os.listdir(tmp_path) == ["doc.json"]
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == "new"


def _is_os_replace(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "replace"
            and isinstance(node.value, ast.Name) and node.value.id == "os")


def _is_canonical_dumps(node: ast.AST) -> bool:
    """A ``json.dump(s)(..., sort_keys=True, ..., default=str)`` call."""
    if not (isinstance(node, ast.Call)
            and ast.unparse(node.func) in ("json.dumps", "json.dump")):
        return False
    kwargs = {kw.arg: ast.unparse(kw.value) for kw in node.keywords}
    return kwargs.get("sort_keys") == "True" and kwargs.get("default") == "str"


def test_store_is_the_only_atomic_writer_and_canonical_encoder():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path == SRC / "store.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders += [f"{path.relative_to(SRC)}:{node.lineno}"
                      for node in ast.walk(tree)
                      if _is_os_replace(node) or _is_canonical_dumps(node)]
    assert offenders == []
