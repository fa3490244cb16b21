#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

Run from the repository root, on the code the references should pin::

    python3 perfbench/record_reference.py

Writes ``perfbench/reference.json``: the simulated ``rate``/``span`` of
each Fig 1(a) point the ``msgrate`` and ``profile`` workloads run, and
the sha256 of the canonical outcome of every scenario in the ``campaign``
pool. The ``serve`` workload needs no file: it checks every served
result against an in-process ``execute_point``. Re-recording is a
deliberate act: it redefines what "correct" means for every later run.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from harness.workloads import (CAMPAIGN_POOL_SEED, CAMPAIGN_POOL_SIZE,
                                   MODES, WORKLOADS, sha)
    from repro.scenarios.executor import run_scenario
    from repro.scenarios.sample import sample_scenarios

    def fig1a(name: str) -> dict:
        """Each point exactly as the workload runs it."""
        wl = WORKLOADS[name](ROOT, reference={})
        return {mode: {"rate": r.rate, "span": r.span}
                for mode, r in ((m, wl.point(m)) for m in MODES)}

    pool = sample_scenarios(CAMPAIGN_POOL_SEED, CAMPAIGN_POOL_SIZE)
    doc = {
        "msgrate": fig1a("msgrate"),
        "profile": fig1a("profile"),
        "campaign": {"pool_seed": CAMPAIGN_POOL_SEED,
                     "pool_size": CAMPAIGN_POOL_SIZE,
                     "outcomes": [sha(run_scenario(s)) for s in pool]},
    }
    path = os.path.join(HERE, "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
