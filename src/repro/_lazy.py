"""Lazy package attributes (PEP 562).

A package lists, per module it does not import up front, the public
names it re-exports from it; the first access to one of them imports the
defining module::

    __getattr__, __dir__ = lazy_exports(__name__, {
        ".checker": ("CheckConfig", "Checker"),
        ".lint": ("Finding", "run_lint"),
    })

Nothing is cached in the package's namespace: every access reads the
defining module's current attribute, so the package and the module always
agree, even while something has rebound the module's name.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Iterable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(package: str, exports: Mapping[str, Iterable[str]]
                 ) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``package``: each name listed in
    ``exports`` is read from its module (relative to ``package``) when
    it is accessed."""
    table = {name: module for module, names in exports.items()
             for name in names}

    def __getattr__(name: str) -> Any:
        module = table.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        return getattr(importlib.import_module(module, package), name)

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(table))

    return __getattr__, __dir__
