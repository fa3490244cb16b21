"""Import every module of the ``repro`` package, each on its own.

Before each import, every ``repro`` module is dropped from
``sys.modules``, so a module that only imports behind an eager package
``__init__`` (an import cycle) fails here. Run from an environment that
holds only the runtime dependencies (``pip install .``, no extras), it
also shows that those dependencies are all the package imports::

    python tools/import_every_module.py              # the installed repro
    PYTHONPATH=src python tools/import_every_module.py   # the source tree

Prints ``{module: traceback}`` for the failures as JSON (and, on stderr,
how many modules it imported from where), and exits 1 if there are any.
"""

import importlib
import json
import pkgutil
import sys
import traceback


def import_every_module() -> tuple[list[str], dict[str, str]]:
    """The ``repro`` modules tried, and ``{module: traceback}`` of those
    that fail to import in an interpreter holding no other ``repro``
    module."""
    import repro
    names = ["repro"] + [m.name for m in
                         pkgutil.walk_packages(repro.__path__, "repro.")]
    failed = {}
    for name in names:
        if name == "repro.__main__":  # runs the CLI
            continue
        for loaded in [m for m in sys.modules
                       if m == "repro" or m.startswith("repro.")]:
            del sys.modules[loaded]
        try:
            importlib.import_module(name)
        except Exception:
            failed[name] = traceback.format_exc(limit=-3)
    return names, failed


if __name__ == "__main__":
    names, failed = import_every_module()
    print(f"{len(names) - len(failed)} of {len(names)} modules imported "
          f"from {sys.modules['repro'].__path__[0]}", file=sys.stderr)
    print(json.dumps(failed, indent=2))
    sys.exit(1 if failed else 0)
