"""Declared dependencies are exactly the imported ones: every third-party
package that ``src/repro`` imports is listed in ``pyproject.toml``, and
nothing listed there goes unimported."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11

ROOT = Path(__file__).resolve().parents[1]

#: Distribution names whose import name differs.
IMPORT_NAME = {"pyyaml": "yaml"}


def imported_packages() -> dict[str, list[str]]:
    """Top-level third-party package -> the modules importing it."""
    found: dict[str, list[str]] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    found.setdefault(top, []).append(
                        str(path.relative_to(ROOT)))
    return found


def declared_packages() -> set[str]:
    """Import names of the runtime dependencies in pyproject.toml."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    names = {re.split(r"[\s<>=!~;\[]", d, maxsplit=1)[0].lower() for d in deps}
    return {IMPORT_NAME.get(n, n) for n in names}


def test_declared_dependencies_match_imports():
    imported = imported_packages()
    declared = declared_packages()
    undeclared = {pkg: mods for pkg, mods in imported.items()
                  if pkg not in declared}
    assert not undeclared, f"imported but not declared: {undeclared}"
    assert not declared - set(imported), \
        f"declared but never imported: {sorted(declared - set(imported))}"
