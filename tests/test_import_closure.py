"""What ``import repro`` costs, and that every module imports on its own.

``import repro`` (and so the Fig 1(a) driver ``repro.bench.msgrate``)
loads only the simulation core; the scenario, service, analysis, checker,
fault and snapshot tooling load when first used. The hub packages expose
those names lazily (PEP 562), and these tests pin both halves: the core's
import closure stays small, and every lazy name still resolves to the
object its defining module holds.
"""

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")

#: Modules the simulation core must not pull in.
NOT_IN_CORE = (
    "repro.scenarios", "repro.serve", "repro.analysis", "repro.apps",
    "repro.check.static_", "repro.check.lint", "repro.check.checker",
    "repro.faults", "repro.snap.bisect", "repro.snap.replay",
    "repro.bench.memo", "repro.bench.parallel", "repro.bench.sweep",
    "yaml", "networkx", "multiprocessing",
)

#: Upper bound on the ``repro.*`` modules ``import repro.bench.msgrate``
#: loads (every package eager, it was 92).
MAX_CORE_MODULES = 50

#: Packages whose ``__all__`` is partly served by a lazy ``__getattr__``.
LAZY_PACKAGES = ("repro", "repro.bench", "repro.check", "repro.snap",
                 "repro.scenarios")

#: Modules the scenario runner (sample + run one scenario, as a campaign
#: worker does) must not pull in: campaign orchestration, the shrinker
#: and their dependencies.
NOT_IN_SCENARIO_RUNNER = (
    "networkx", "yaml", "multiprocessing", "repro.bench.parallel",
    "repro.scenarios.campaign", "repro.scenarios.shrink",
)


def _fresh(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter importing from src."""
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r})\n"
                               + textwrap.dedent(code)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_core_import_closure():
    loaded = json.loads(_fresh("""
        import json
        import repro.bench.msgrate
        print(json.dumps(sorted(sys.modules)))
    """))
    pulled = [m for m in loaded
              if any(m == name or m.startswith(name + ".")
                     for name in NOT_IN_CORE)]
    assert pulled == []
    core = [m for m in loaded if m == "repro" or m.startswith("repro.")]
    assert len(core) <= MAX_CORE_MODULES, core


def test_scenario_runner_import_closure():
    loaded = json.loads(_fresh("""
        import json
        import repro.scenarios.executor
        import repro.scenarios.sample
        specs = repro.scenarios.sample.sample_scenarios(2022, 256)
        graph = next(s for s in specs if s.app == "graph")
        outcome = repro.scenarios.executor.run_scenario(graph)
        assert outcome["status"] == "ok", outcome
        print(json.dumps(sorted(sys.modules)))
    """))
    pulled = [m for m in loaded
              if any(m == name or m.startswith(name + ".")
                     for name in NOT_IN_SCENARIO_RUNNER)]
    assert pulled == []


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_public_name_resolves(package):
    pkg = importlib.import_module(package)
    listing = dir(pkg)
    for name in pkg.__all__:
        obj = getattr(pkg, name)
        assert name in listing
        if name == "__version__":
            continue
        homes = [m for m in list(sys.modules.values())
                 if m is not pkg and m.__name__.startswith("repro.")
                 and vars(m).get(name) is obj]
        assert homes, f"{package}.{name} is not its defining module's object"
        exec(f"from {package} import {name}", {})
    with pytest.raises(AttributeError):
        getattr(pkg, "no_such_name")
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_name", {})


def test_every_module_imports_on_its_own():
    """Each module imports in an interpreter holding no other ``repro``
    module: no import cycle hides behind an eager package ``__init__``.
    (CI runs the same script in a venv holding only the runtime
    dependencies.)"""
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "import_every_module.py")],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": SRC})
    assert json.loads(done.stdout) == {}, done.stderr
    assert done.returncode == 0, done.stderr
