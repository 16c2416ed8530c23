"""Benchmark telemetry: the experiment grid's results and the JIT gate.

``collect()`` (the engine behind ``repro bench``) runs the grid from
:mod:`repro.harness.experiments` once through the parallel
:class:`~repro.harness.runner.Runner` and records each job's status,
plus the translated fast path's in-process speedup over the interpreter
(the ``jit`` section) and, on request, the multiprocessor scaling grid
(``multi``).  It writes ``BENCH_pipeline.json`` at the repo root;
``merge_section`` lets other producers (the pytest benchmark suite) fold
their timings into the same file without clobbering it.  Absolute host
speed is perfbench's to measure (``perfbench/run.py``), calibrated and
pinned.

The workload-cpi sweep's per-job telemetry snapshots (see
:mod:`repro.telemetry`) are aggregated by :func:`build_metrics_summary`
into ``METRICS_summary.json`` -- the file ``tools/check_results.py
--metrics-file`` audits for counter/analysis CPI consistency.
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import platform
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.harness.runner import JobResult, Runner
from repro.store import REPO_ROOT, write_json_atomic

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_pipeline.json"
DEFAULT_METRICS_OUTPUT = REPO_ROOT / "METRICS_summary.json"

#: workloads of the jit section: one loop-heavy integer program and one
#: branchy one, both in the Pascal suite
THROUGHPUT_WORKLOADS = ("sieve", "bubble")


def measure_jit_throughput(names: Sequence[str] = THROUGHPUT_WORKLOADS,
                           repeats: int = 3) -> Dict[str, Any]:
    """Translated-fast-path speedup per workload: jit vs interpreter.

    Each workload runs ``repeats`` times per configuration (programs
    compiled once, outside the timed region).  Alongside the wall-clock
    ratio, the section records what the timing means: ``equivalent``
    asserts the jit run's machine
    :func:`~repro.checkpoint.equivalence.signature` (every pipeline
    counter, registers, memory, console, devices and caches) matches the
    interpretive run's exactly (the fast path is cycle-exact or it is
    broken), ``compile_s`` is the wall time the block compiler spent,
    and ``entry_hit_rate`` is taken entries over dispatch hits -- a low
    rate means guards keep bouncing blocks back to the interpreter.
    """
    import dataclasses as _dc

    from repro.checkpoint.equivalence import signature
    from repro.core import Machine, MachineConfig
    from repro.workloads import cached_program

    per_workload: Dict[str, Any] = {}
    total_nojit = 0.0
    total_jit = 0.0
    all_equivalent = True
    for name in names:
        program = cached_program(name)
        row: Dict[str, Any] = {}
        baseline = None
        for jit in (False, True):
            config = _dc.replace(MachineConfig(), jit=jit)
            started = time.perf_counter()
            cycles = 0
            machines = []
            for _ in range(repeats):
                machine = Machine(config)
                machine.load_program(program)
                cycles += machine.run().cycles
                machines.append(machine)
            wall = time.perf_counter() - started
            signatures = [signature(run) for run in machines]
            key = "jit" if jit else "nojit"
            row[f"{key}_wall_s"] = round(wall, 4)
            row[f"{key}_cycles_per_sec"] = round(cycles / wall) if wall else 0
            if not jit:
                baseline = signatures
                total_nojit += wall
            else:
                row["equivalent"] = signatures == baseline
                all_equivalent &= row["equivalent"]
                total_jit += wall
                translator = machine.pipeline._translator
                stats = translator.stats
                hits = stats.entries + stats.entry_rejected
                row["compile_s"] = round(translator.compile_s, 4)
                row["blocks_compiled"] = stats.compiled
                row["entry_hit_rate"] = (round(stats.entries / hits, 4)
                                         if hits else 0.0)
                run_cycles = machine.pipeline.stats.cycles
                row["cycle_coverage"] = (
                    round(stats.cycles / run_cycles, 4) if run_cycles
                    else 0.0)
        row["speedup"] = (round(row["nojit_wall_s"] / row["jit_wall_s"], 2)
                          if row["jit_wall_s"] else 0.0)
        per_workload[name] = row
    return {
        "workloads": per_workload,
        "repeats": repeats,
        "equivalent": all_equivalent,
        "speedup": (round(total_nojit / total_jit, 2) if total_jit else 0.0),
    }


def _results_section(results: Sequence[JobResult]) -> Dict[str, Any]:
    return {
        r.job_id: {
            "status": r.status,
            "sweep": r.sweep,
            "duration_s": round(r.duration, 4),
            "attempts": r.attempts,
        }
        for r in results
    }


def build_metrics_summary(results: Sequence[JobResult]) -> Dict[str, Any]:
    """Aggregate per-job telemetry snapshots into one summary payload.

    Pure and deterministic: no timestamps, counters summed across jobs,
    derived gauges recomputed from the summed counters (never averaged)
    -- so a parallel sweep aggregates **byte-identically** to a serial
    one (pinned by ``tests/test_telemetry.py``).  The payload is what
    ``METRICS_summary.json`` holds and what ``check_results.py
    --metrics-file`` audits: each workload's full snapshot, the analysis
    CPI reported alongside it (the identity under test), and the suite
    totals.
    """
    per_workload: Dict[str, Any] = {}
    analysis: Dict[str, Any] = {}
    for result in results:
        if not result.ok or result.sweep != "workload-cpi":
            continue
        value = result.value or {}
        snapshot = value.get("metrics")
        if not isinstance(snapshot, dict):
            continue
        name = value.get("workload", result.job_id)
        per_workload[name] = {key: snapshot[key] for key in sorted(snapshot)}
        analysis[name] = {
            "cpi": value.get("cpi"),
            "noop_fraction": value.get("noop_fraction"),
            "cycles": value.get("cycles"),
            "instructions": value.get("instructions"),
        }
    from repro.telemetry.metrics import (derived_from_counters,
                                         merge_counter_snapshots)

    totals = merge_counter_snapshots(per_workload.values())
    return {
        "schema": 1,
        "sweep": "workload-cpi",
        "workloads": sorted(per_workload),
        "per_workload": per_workload,
        "analysis": analysis,
        "totals": totals,
        "derived": derived_from_counters(totals),
    }


def build_multi_section(results: Sequence[JobResult]) -> Dict[str, Any]:
    """Aggregate multi-scaling job results into the ``multi`` section.

    Pure and deterministic (no wall-clock fields): per-job rows keyed by
    job id, plus speedup/contention curves grouped by ``(workload,
    bus_latency, invalidation)`` with the curve's smallest node count as
    the speedup baseline -- so ``speedup[0] == 1.0`` by construction and
    a serial sweep aggregates byte-identically to a parallel one.
    """
    rows: Dict[str, Any] = {}
    failures: List[str] = []
    total = 0
    for result in results:
        if result.sweep != "multi-scaling":
            continue
        total += 1
        if not result.ok or not isinstance(result.value, dict):
            failures.append(result.job_id)
            continue
        value = result.value
        rows[result.job_id] = {
            "workload": value["workload"],
            "nodes": value["nodes"],
            "bus_latency": value["bus_latency"],
            "invalidation": value["invalidation"],
            "size": value["size"],
            "cycles": value["cycles"],
            "node_cycles": value["node_cycles"],
            "instructions": value["instructions"],
            "bus": value["bus"],
            "result": value["result"],
            "result_ok": value["result_ok"],
        }
    groups: Dict[tuple, List[dict]] = {}
    for row in rows.values():
        key = (row["workload"], row["bus_latency"], row["invalidation"])
        groups.setdefault(key, []).append(row)
    curves: Dict[str, Any] = {}
    for (workload, latency, invalidation), members in groups.items():
        members.sort(key=lambda row: row["nodes"])
        base = members[0]["cycles"]
        label = (f"{workload}/bus{latency}/"
                 f"{'inv' if invalidation else 'noinv'}")
        curves[label] = {
            "workload": workload,
            "bus_latency": latency,
            "invalidation": invalidation,
            "nodes": [row["nodes"] for row in members],
            "cycles": [row["cycles"] for row in members],
            "speedup": [round(base / row["cycles"], 6) if row["cycles"]
                        else 0.0 for row in members],
            "acquisitions": [row["bus"]["acquisitions"]
                             for row in members],
            "contention_cycles": [row["bus"]["contention_cycles"]
                                  for row in members],
            "invalidations": [row["bus"]["invalidations"]
                              for row in members],
        }
    return {
        "schema": 1,
        "jobs": total,
        "ok": len(rows),
        "failures": sorted(failures),
        "rows": {key: rows[key] for key in sorted(rows)},
        "curves": {key: curves[key] for key in sorted(curves)},
    }


def collect(quick: bool = False,
            workers: Optional[int] = None,
            timeout: Optional[float] = None,
            output: Optional[pathlib.Path] = None,
            metrics_output: Optional[pathlib.Path] = None,
            multi: bool = False,
            multi_nodes: Optional[Sequence[int]] = None,
            multi_only: bool = False) -> Dict[str, Any]:
    """Run the telemetry suite and persist ``BENCH_pipeline.json``.

    Also aggregates the per-job telemetry snapshots of the workload-cpi
    sweep into ``METRICS_summary.json`` (see :func:`build_metrics_summary`)
    and embeds the suite totals in the bench payload's ``metrics``
    section.

    ``multi=True`` additionally fans the multiprocessor scaling grid
    (:func:`repro.harness.experiments.multi_scaling_jobs`) across the
    Runner and writes the aggregate as the payload's ``multi`` section;
    ``multi_nodes`` restricts the node counts (e.g. ``(1, 2, 4)`` in CI
    smoke jobs) and ``multi_only`` skips the uniprocessor grid and the
    jit section so a CI lane can produce just the multi section fast.
    """
    from repro.harness.experiments import default_jobs, multi_scaling_jobs

    multi = multi or multi_only
    runner = Runner(max_workers=workers)
    jobs = [] if multi_only else default_jobs(quick=quick, timeout=timeout)
    jit = (None if multi_only
           else measure_jit_throughput(repeats=1 if quick else 3))
    results = runner.run(jobs)

    payload: Dict[str, Any] = {
        "schema": 1,
        "generated": datetime.datetime.now(datetime.timezone.utc)
                     .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "quick": quick,
        "host": {
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "workers": runner.max_workers,
        },
        "sweep": {"jobs": len(jobs), "ok": sum(1 for r in results if r.ok)},
        "experiments": _results_section(results),
    }
    if jit is not None:
        payload["jit"] = jit
    if multi:
        multi_jobs = multi_scaling_jobs(quick=quick, nodes=multi_nodes,
                                        timeout=timeout)
        payload["multi"] = build_multi_section(runner.run(multi_jobs))
    metrics_summary = build_metrics_summary(results)
    if metrics_summary["per_workload"]:
        payload["metrics"] = {
            "workloads": metrics_summary["workloads"],
            "totals": metrics_summary["totals"],
            "derived": metrics_summary["derived"],
        }
        metrics_path = (pathlib.Path(metrics_output) if metrics_output
                        else DEFAULT_METRICS_OUTPUT)
        write_json_atomic(metrics_path, metrics_summary)
    path = pathlib.Path(output) if output else DEFAULT_OUTPUT
    write_json_atomic(path, payload)
    return payload


def merge_section(section: str, data: Any,
                  path: Optional[pathlib.Path] = None) -> None:
    """Read-modify-write one top-level section of the telemetry file.

    Creates a minimal file when none exists, so producers (e.g. the
    pytest benchmark timing hook) can run in any order.
    """
    path = pathlib.Path(path) if path else DEFAULT_OUTPUT
    payload: Dict[str, Any] = {"schema": 1}
    if path.exists():
        try:
            payload = json.loads(path.read_text())
        except (ValueError, OSError):
            pass
    payload[section] = data
    write_json_atomic(path, payload)


def format_summary(payload: Dict[str, Any]) -> str:
    """Human-readable one-screen summary of a telemetry payload."""
    lines: List[str] = []
    jit = payload.get("jit")
    if jit:
        lines.append(f"jit speedup       {jit.get('speedup', 0.0)}x vs "
                     "interpreter"
                     + ("" if jit.get("equivalent", True)
                        else "  [NOT CYCLE-EXACT]"))
        for name, row in sorted(jit.get("workloads", {}).items()):
            lines.append(
                f"  {name:<12} {row.get('speedup', 0.0)}x "
                f"({row.get('jit_cycles_per_sec', 0):,} vs "
                f"{row.get('nojit_cycles_per_sec', 0):,} cyc/s, "
                f"{row.get('cycle_coverage', 0.0):.1%} coverage, "
                f"compile {row.get('compile_s', 0.0)}s)")
    metrics = payload.get("metrics")
    if metrics:
        derived = metrics.get("derived", {})
        lines.append(
            f"metrics           {len(metrics.get('workloads', []))} "
            f"workloads aggregated, suite CPI "
            f"{derived.get('pipeline.cpi', 0.0):.3f} "
            "(METRICS_summary.json)")
    sweep = payload.get("sweep", {})
    if sweep.get("jobs"):
        lines.append(f"sweep             {sweep.get('ok')}/"
                     f"{sweep.get('jobs')} jobs ok "
                     f"({payload['host']['workers']} workers)")
    multi = payload.get("multi")
    if multi:
        lines.append(f"multi scaling     {multi.get('ok')}/"
                     f"{multi.get('jobs')} points ok")
        for label, curve in sorted(multi.get("curves", {}).items()):
            pairs = ", ".join(
                f"n{n}={s}x" for n, s in zip(curve.get("nodes", []),
                                             curve.get("speedup", [])))
            lines.append(f"  {label:<22} {pairs}")
        for job_id in multi.get("failures", []):
            lines.append(f"  FAILED {job_id}")
    return "\n".join(lines)
