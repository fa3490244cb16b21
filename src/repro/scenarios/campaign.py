"""Campaign runner: sampled chaos sweeps with resume, report and replay.

A *campaign* is ``n`` sampled scenarios executed under the analyzer and
fault injector, with every completed scenario checkpointed atomically the
moment it finishes (via :func:`repro.bench.parallel.run_points`). Kill
the process at any time — ``resume`` re-samples the identical scenario
list from the manifest and runs only the missing points, producing
byte-identical results to an uninterrupted run.

Every failing scenario is handed to the delta-debugging shrinker; the
minimal repro is written as a self-contained YAML artifact and then
*verified* (two replays, byte-identical, fingerprint match) before the
campaign will vouch for it.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Optional, Sequence

from ..bench.parallel import run_points
from ..errors import ScenarioError
from ..store import PENDING, PointStore, write_atomic
from .executor import run_scenario
from .sample import SAMPLER_VERSION, sample_scenarios
from .shrink import shrink_scenario, verify_artifact, write_artifact
from .spec import ScenarioSpec

__all__ = ["run_campaign", "campaign_report", "render_report",
           "load_manifest", "summarize_outcomes"]

_MANIFEST = "campaign.json"

#: Test hook: crash the process (``os._exit(9)``) after this many
#: scenarios have executed in-process — simulates kill -9 mid-campaign
#: for the resume tests. Counted per process, serial path only.
_CRASH_ENV = "REPRO_CAMPAIGN_CRASH_AFTER"
_executed_in_process = 0


def _scenario_point(spec: dict) -> dict[str, Any]:
    """Module-level point function (pool workers import it by name)."""
    global _executed_in_process
    limit = os.environ.get(_CRASH_ENV)
    if limit is not None and _executed_in_process >= int(limit):
        os._exit(9)
    outcome = run_scenario(ScenarioSpec.from_dict(spec))
    _executed_in_process += 1
    return outcome


def load_manifest(out_dir: str) -> dict[str, Any]:
    """Read a campaign directory's manifest."""
    path = os.path.join(out_dir, _MANIFEST)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise ScenarioError(
            f"{out_dir!r} has no campaign manifest ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"corrupt manifest {path!r}: {exc}") from exc
    if manifest.get("sampler_version") != SAMPLER_VERSION:
        raise ScenarioError(
            f"campaign was sampled by sampler v"
            f"{manifest.get('sampler_version')}, this build is v"
            f"{SAMPLER_VERSION}; re-run instead of resuming")
    return manifest


def run_campaign(out_dir: str, seed: int = 0, n: int = 100,
                 jobs: int = 1,
                 apps: Optional[Sequence[str]] = None,
                 resume: bool = False,
                 shrink: bool = True,
                 max_shrink_evals: int = 120,
                 progress: Optional[Callable[[str], None]] = None,
                 runner: Callable[..., list] = run_points
                 ) -> dict[str, Any]:
    """Run (or resume) a campaign; returns the summary dict.

    ``out_dir`` layout::

        campaign.json       manifest: seed, n, apps, sampler version
        points/point-*.json one checkpoint per completed scenario
        artifacts/*.yaml    one verified minimal repro per failure
        summary.json        the returned summary

    With ``resume=True`` the manifest's (seed, n, apps) override the
    arguments, so a resumed campaign always matches its original sample.
    """
    say = progress or (lambda _line: None)
    os.makedirs(out_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, _MANIFEST)
    if resume:
        manifest = load_manifest(out_dir)
        seed, n = manifest["seed"], manifest["n"]
        apps = manifest["apps"]
    else:
        if os.path.exists(manifest_path):
            old = load_manifest(out_dir)
            if (old["seed"], old["n"]) != (seed, n):
                raise ScenarioError(
                    f"{out_dir!r} already holds a different campaign "
                    f"(seed={old['seed']}, n={old['n']}); use a fresh "
                    "directory or pass resume")
        manifest = {"seed": int(seed), "n": int(n),
                    "apps": sorted(apps) if apps else None,
                    "sampler_version": SAMPLER_VERSION}
        write_atomic(manifest_path,
                     json.dumps(manifest, indent=2, sort_keys=True))

    specs = sample_scenarios(seed, n, apps=apps)
    say(f"campaign: {len(specs)} scenarios (seed={seed})")
    points = [{"spec": spec.to_dict()} for spec in specs]
    outcomes = runner(_scenario_point, points, jobs=jobs,
                      checkpoint_dir=os.path.join(out_dir, "points"),
                      resume=resume)

    failures = [(index, specs[index], outcome)
                for index, outcome in enumerate(outcomes)
                if outcome["status"] != "ok"]
    say(f"campaign: {len(failures)} failing / {len(outcomes)} run")

    artifacts: list[dict[str, Any]] = []
    if shrink and failures:
        artifact_dir = os.path.join(out_dir, "artifacts")
        os.makedirs(artifact_dir, exist_ok=True)
        for index, spec, outcome in failures:
            result = shrink_scenario(spec, outcome,
                                     max_evals=max_shrink_evals)
            name = (f"fail-{index:04d}-{outcome['status']}-"
                    f"{(outcome['rule'] or 'none').replace(' ', '')}.yaml")
            path = os.path.join(artifact_dir, name)
            write_artifact(path, result)
            verdict = verify_artifact(path)
            say(f"  shrunk #{index} ({outcome['status']}/{outcome['rule']}) "
                f"in {result.evals} evals -> {name}"
                + ("" if verdict["ok"] else "  [VERIFY FAILED]"))
            artifacts.append({
                "index": index, "path": path,
                "status": outcome["status"], "rule": outcome["rule"],
                "evals": result.evals, "steps": result.steps,
                "verified": verdict["ok"],
                "problems": verdict["problems"],
            })

    summary = summarize_outcomes(manifest, outcomes, artifacts)
    write_atomic(os.path.join(out_dir, "summary.json"),
                 json.dumps(summary, indent=2, sort_keys=True))
    return summary


def summarize_outcomes(manifest: dict, outcomes: list[dict],
                       artifacts: list[dict]) -> dict[str, Any]:
    """Aggregate outcome dicts into the campaign summary document.

    Shared by the local campaign runner and the serve API's campaign
    result endpoint, so a served campaign's report JSON has exactly the
    shape (and sort order) of a local ``summary.json``.
    """
    by_status: dict[str, int] = {}
    by_rule: dict[str, int] = {}
    by_app: dict[str, dict[str, int]] = {}
    for outcome in outcomes:
        status = outcome["status"]
        by_status[status] = by_status.get(status, 0) + 1
        if outcome.get("rule"):
            by_rule[outcome["rule"]] = by_rule.get(outcome["rule"], 0) + 1
        app = outcome["spec"]["app"]
        per = by_app.setdefault(app, {})
        per[status] = per.get(status, 0) + 1
    return {
        "manifest": manifest,
        "total": len(outcomes),
        "by_status": dict(sorted(by_status.items())),
        "by_rule": dict(sorted(by_rule.items())),
        "by_app": {a: dict(sorted(c.items()))
                   for a, c in sorted(by_app.items())},
        "failures": sum(count for status, count in by_status.items()
                        if status != "ok"),
        "artifacts": artifacts,
        "all_verified": all(a["verified"] for a in artifacts),
    }


def campaign_report(out_dir: str) -> dict[str, Any]:
    """Progress/summary of a campaign directory, finished or not.

    Reads only the manifest and the per-point checkpoints, so it works on
    a half-finished (or killed) campaign without running anything.
    """
    manifest = load_manifest(out_dir)
    specs = sample_scenarios(manifest["seed"], manifest["n"],
                             apps=manifest["apps"])
    store = PointStore(os.path.join(out_dir, "points"))
    done: list[dict] = []
    pending = 0
    for spec in specs:
        cached = store.load({"spec": spec.to_dict()})
        if cached is PENDING:
            pending += 1
        else:
            done.append(cached)
    summary = summarize_outcomes(manifest, done, _load_artifact_index(out_dir))
    summary["pending"] = pending
    return summary


def _load_artifact_index(out_dir: str) -> list[dict]:
    path = os.path.join(out_dir, "summary.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh).get("artifacts", [])
    except (OSError, json.JSONDecodeError):
        return []


def render_report(summary: dict[str, Any]) -> str:
    """Human rendering of a campaign summary."""
    manifest = summary["manifest"]
    lines = [f"campaign seed={manifest['seed']} n={manifest['n']} "
             f"(sampler v{manifest['sampler_version']})",
             f"  run: {summary['total']}"
             + (f"  pending: {summary['pending']}"
                if summary.get("pending") else "")]
    for status, count in summary["by_status"].items():
        lines.append(f"  {status:10s} {count:5d}")
    if summary["by_rule"]:
        lines.append("  rules: " + ", ".join(
            f"{rule} x{count}" for rule, count in summary["by_rule"].items()))
    lines.append("  by app:")
    for app, counts in summary["by_app"].items():
        rendered = " ".join(f"{status}={count}"
                            for status, count in counts.items())
        lines.append(f"    {app:10s} {rendered}")
    for art in summary.get("artifacts", []):
        state = "verified" if art["verified"] else "VERIFY FAILED"
        lines.append(f"  artifact #{art['index']}: "
                     f"{art['status']}/{art['rule']} "
                     f"({art['evals']} evals, {state})")
        lines.append(f"    {art['path']}")
    return "\n".join(lines)
