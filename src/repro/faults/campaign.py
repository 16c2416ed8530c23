"""The ``repro faults`` campaign driver.

Fans N seeded fault plans across :class:`repro.harness.runner.Runner`
(one differential run per worker process), aggregates a structured
per-fault-class report, and writes it atomically to
``FAULTS_campaign.json`` at the repo root.

The campaign doubles as a chaos test of the harness itself: with
``chaos_rate > 0`` a seeded subset of first-attempt workers is killed
mid-job (``ChaosMonkey``), and the runner's backoff-retry/merge path has
to deliver the same verdicts regardless -- the report's ``harness``
section records exactly what the runner had to absorb.

Exit semantics: :func:`verdict` judges this report and the
``--multi-nodes`` one (:mod:`repro.faults.multi`), and the CLI exits
with :func:`repro.harness.verdict.exit_code`.  A classified invariant
violation is a *finding* (exit 2): the checker did its job.  A job that
ends in an unhandled state (``error``/``timeout``/``crashed``) is a
harness failure (exit 1): a fault may have escaped the model as a
Python crash.  When a run has both, the finding wins and it exits 2.
"""

from __future__ import annotations

import pathlib
from typing import Any, Dict, List, Optional, Sequence

from repro.faults.invariants import differential_for_seed
from repro.faults.plan import FAULT_CLASSES
from repro.harness.runner import ChaosMonkey, Job, JobResult, Runner
from repro.harness.verdict import Verdict, write_report
from repro.store import REPO_ROOT

DEFAULT_REPORT = REPO_ROOT / "FAULTS_campaign.json"

#: per-differential-run wall-clock watchdog (each run simulates a few
#: thousand cycles; a minute means something hung, not something slow)
JOB_TIMEOUT = 60.0


def campaign_point(seed: int, fault_class: str,
                   max_events: int = 6) -> Dict[str, Any]:
    """One campaign job: build the plan for ``seed``, run the
    differential checker, return the verdict (picklable dict)."""
    report = differential_for_seed(seed, fault_class,
                                   max_events=max_events)
    return report.to_dict()


def campaign_jobs(seeds: int, quick: bool = False,
                  timeout: Optional[float] = JOB_TIMEOUT) -> List[Job]:
    """The seeded job grid: fault classes rotate across seeds so every
    class is exercised roughly ``seeds / len(FAULT_CLASSES)`` times."""
    jobs = []
    for seed in range(seeds):
        fault_class = FAULT_CLASSES[seed % len(FAULT_CLASSES)]
        jobs.append(Job(
            id=f"faults/{seed:03d}-{fault_class}",
            fn="repro.faults.campaign:campaign_point",
            params={"seed": seed, "fault_class": fault_class,
                    "max_events": 3 if quick else 6},
            timeout=timeout,
            sweep="faults"))
    return jobs


def aggregate(results: List[JobResult], fault_classes: Sequence[str],
              counters: Sequence[str] = ("exceptions_taken",),
              context: Sequence[str] = ()) -> Dict[str, Any]:
    """Per-class rows from the jobs' differential verdicts: status
    counts, summed ``counters``, max inflation, and each violation
    tagged with its seed and the verdict's ``context`` fields."""
    per_class: Dict[str, Dict[str, Any]] = {}
    for fault_class in fault_classes:
        per_class[fault_class] = {
            "runs": 0, "absorbed": 0, "not_triggered": 0, "violated": 0,
            "max_inflation": 0, "violations": [],
            **{key: 0 for key in counters},
        }
    for result in results:
        if not result.ok or not isinstance(result.value, dict):
            continue
        verdict = result.value
        row = per_class[verdict["fault_class"]]
        row["runs"] += 1
        row[verdict["status"].replace("-", "_")] += 1
        for key in counters:
            row[key] += verdict[key]
        row["max_inflation"] = max(row["max_inflation"],
                                   verdict["inflation"])
        for violation in verdict["violations"]:
            row["violations"].append(
                {"seed": verdict["seed"],
                 **{key: verdict[key] for key in context}, **violation})
    return {name: row for name, row in per_class.items() if row["runs"]}


def summary_counts(classes: Dict[str, Any]) -> Dict[str, int]:
    """Campaign-wide sums of the per-class status counts."""
    return {key: sum(row[key] for row in classes.values())
            for key in ("runs", "absorbed", "not_triggered", "violated")}


def run_campaign(seeds: int = 32,
                 workers: Optional[int] = None,
                 quick: bool = False,
                 parallel: bool = True,
                 chaos_rate: float = 0.0,
                 chaos_seed: int = 0,
                 output: Optional[pathlib.Path] = None) -> Dict[str, Any]:
    """Run the campaign and persist the structured report."""
    jobs = campaign_jobs(seeds, quick=quick)
    runner = Runner(max_workers=workers,
                    default_timeout=JOB_TIMEOUT,
                    chaos=ChaosMonkey(rate=chaos_rate, seed=chaos_seed))
    results = runner.run(jobs, parallel=parallel)

    harness_rows = {
        r.job_id: {
            "status": r.status,
            "attempts": r.attempts,
            "error_kind": r.error_kind,
            "duration_s": round(r.duration, 4),
        }
        for r in results
    }
    unhandled = {r.job_id: (r.error or r.status) for r in results
                 if not r.ok and r.status != "interrupted"}
    interrupted = sum(1 for r in results if r.status == "interrupted")
    classes = aggregate(results, FAULT_CLASSES)
    payload: Dict[str, Any] = {
        "schema": 1,
        "seeds": seeds,
        "quick": quick,
        "chaos_rate": chaos_rate,
        "complete": interrupted == 0,
        "summary": {
            **summary_counts(classes),
            "unhandled_jobs": len(unhandled),
            "interrupted_jobs": interrupted,
            "retried_jobs": sum(1 for r in results
                                if r.status == "retried-ok"),
        },
        "classes": classes,
        "harness": harness_rows,
    }
    if unhandled:
        payload["unhandled"] = unhandled
    write_report(payload, output, DEFAULT_REPORT)
    return payload


def verdict(payload: Dict[str, Any]) -> Verdict:
    """The report's verdict, for ``repro faults`` (with or without
    ``--multi-nodes``): violations are findings, unhandled jobs are
    harness failures, and a run cut short by a signal is incomplete."""
    summary = payload["summary"]
    result = Verdict()
    if not payload.get("complete", True):
        result.incomplete.append(
            f"{summary.get('interrupted_jobs', 0)} campaign job(s) were "
            "interrupted before they ran: the report is incomplete "
            "(rerun the campaign)")
    if summary["violated"]:
        result.findings.append(f"{summary['violated']} invariant "
                               "violation(s) classified (see report)")
    if summary["unhandled_jobs"]:
        result.harness.append(f"{summary['unhandled_jobs']} campaign "
                              "job(s) failed in the harness (see report)")
    return result


def format_summary(payload: Dict[str, Any]) -> str:
    """Human-readable one-screen summary of a campaign report."""
    summary = payload["summary"]
    lines = [
        f"fault campaign    {summary['runs']} runs over "
        f"{len(payload['classes'])} fault classes "
        f"({payload['seeds']} seeds"
        + (", quick" if payload.get("quick") else "") + ")",
        f"  absorbed        {summary['absorbed']}",
        f"  not triggered   {summary['not_triggered']}",
        f"  violations      {summary['violated']}",
        f"  harness         {summary['unhandled_jobs']} unhandled, "
        f"{summary['retried_jobs']} retried"
        + (f", {summary['interrupted_jobs']} interrupted"
           if summary.get("interrupted_jobs") else "")
        + (f" (chaos rate {payload['chaos_rate']})"
           if payload.get("chaos_rate") else ""),
        f"  {'class':<16} {'runs':>4} {'absorb':>6} {'quiet':>5} "
        f"{'viol':>4} {'exc':>4} {'max infl':>8}",
    ]
    for name, row in sorted(payload["classes"].items()):
        lines.append(
            f"  {name:<16} {row['runs']:>4} {row['absorbed']:>6} "
            f"{row['not_triggered']:>5} {row['violated']:>4} "
            f"{row['exceptions_taken']:>4} {row['max_inflation']:>8}")
    for name, row in sorted(payload["classes"].items()):
        for violation in row["violations"][:10]:
            lines.append(f"  ! {name} seed {violation['seed']}: "
                         f"[{violation['kind']}] {violation['detail']}")
    return "\n".join(lines)
