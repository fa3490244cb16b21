"""Benchmark harness: workload generators, parallel execution, reporting.

Only the Fig 1(a) driver (:mod:`repro.bench.msgrate`) is imported with the
package; the memoising executor, the process pool, sweeps and result
tables load on first access to one of their names.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports
from .msgrate import (MODES, MsgRateConfig, MsgRateResult, MsgRateWarm,
                      run_msgrate, warm_msgrate)

if TYPE_CHECKING:  # pragma: no cover
    from .memo import MemoStats, WarmPrefixExecutor, fig1a_executor
    from .parallel import (auto_jobs, chunk_size, default_jobs, run_points,
                           scaling_run)
    from .report import Table, write_results
    from .sweep import Sweep, SweepRow

__getattr__, __dir__ = lazy_exports(__name__, {
    ".memo": ("MemoStats", "WarmPrefixExecutor", "fig1a_executor"),
    ".parallel": ("auto_jobs", "chunk_size", "default_jobs", "run_points",
                  "scaling_run"),
    ".report": ("Table", "write_results"),
    ".sweep": ("Sweep", "SweepRow"),
})

__all__ = ["MODES", "MemoStats", "MsgRateConfig", "MsgRateResult",
           "MsgRateWarm", "Sweep", "SweepRow", "Table",
           "WarmPrefixExecutor", "auto_jobs", "chunk_size", "default_jobs",
           "fig1a_executor", "run_msgrate", "run_points", "scaling_run",
           "warm_msgrate", "write_results"]
