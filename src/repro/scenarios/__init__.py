"""Scenario DSL and chaos-fuzzing campaigns.

The robustness counterpart of the benchmark sweeps: a declarative
:class:`ScenarioSpec` composes application x mechanism x topology x
fault plan x transport tuning x background traffic into one YAML-round-
trippable document; :func:`sample_scenarios` draws thousands of valid
specs from a weighted space; :func:`run_campaign` executes them under
the dynamic analyzer with crash-safe checkpoints; and every failure is
delta-debugged down to a minimal, byte-exactly-replayable YAML artifact
(:func:`shrink_scenario` / :func:`verify_artifact`).

See ``docs/scenarios.md`` for the workflow and the CLI
(``python -m repro campaign run|resume|report|replay``).

The package imports the spec, the sampler and the single-scenario
executor; campaign orchestration (checkpoints, the fork pool) and the
shrinker load on first access to one of their names.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports
from .apps import APP_REGISTRY, AppAdapter, app_names, get_app
from .executor import (
    STATUSES,
    outcome_signature,
    run_scenario,
    run_scenario_dict,
    run_scenarios,
)
from .sample import sample_one, sample_scenarios
from .spec import ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover
    from .campaign import campaign_report, load_manifest, render_report, \
        run_campaign, summarize_outcomes
    from .shrink import ShrinkResult, load_artifact, shrink_scenario, \
        verify_artifact, write_artifact

__getattr__, __dir__ = lazy_exports(__name__, {
    ".campaign": ("campaign_report", "load_manifest", "render_report",
                  "run_campaign", "summarize_outcomes"),
    ".shrink": ("ShrinkResult", "load_artifact", "shrink_scenario",
                "verify_artifact", "write_artifact"),
})

__all__ = [
    "APP_REGISTRY", "AppAdapter", "app_names", "get_app",
    "ScenarioSpec", "sample_one", "sample_scenarios",
    "STATUSES", "outcome_signature", "run_scenario", "run_scenario_dict",
    "run_scenarios",
    "ShrinkResult", "shrink_scenario", "write_artifact", "load_artifact",
    "verify_artifact",
    "run_campaign", "campaign_report", "render_report", "load_manifest",
    "summarize_outcomes",
]
