"""Metric names and their aggregation from passes and spans.

``END_TO_END`` and ``PER_LAYER`` are the names, units and directions
that ``BENCHMARK.json`` lists; every workload reports every name, with
0 where a layer does no work on that workload (``translate.*`` on
``interp``, ``runner.*`` off ``sweep``, for instance).

End-to-end metrics come from untraced passes: the median of the run's
passes, scaled to the reference host speed (:mod:`mxperf.calibrate`).
Per-layer metrics come from traced passes: raw span self times, counts
read from the model after each op, and the simulated counters the
checks pin; the per-op rates are scaled like the end-to-end rate they
decompose.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence, Tuple

from mxperf import calibrate
from mxperf.tracer import Tracer
from mxperf.workloads import DEMOS, PROGRAMS, Pass

SWEEPS = ("branch-schemes", "icache-organizations", "ecache-sweep",
          "coproc-schemes", "workload-cpi")

#: (name, unit, better)
END_TO_END: List[Tuple[str, str, str]] = [
    ("wall_s", "s", "lower"),
    ("sim_cycles_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

#: simulated counters summed over a pass: metric -> catalog name
_SIMULATED = {
    "pipeline.cycles": "pipeline.cycles",
    "pipeline.retired": "pipeline.instructions.retired",
    "pipeline.squashed": "pipeline.instructions.squashed",
    "pipeline.icache_stall_cycles": "pipeline.stall.icache_miss",
    "pipeline.data_stall_cycles": "pipeline.stall.ecache_late_miss",
    "pipeline.interrupts": "pipeline.interrupts.taken",
    "icache.accesses": "icache.accesses",
    "icache.misses": "icache.misses",
    "ecache.read_misses": "ecache.read_misses",
    "ecache.write_misses": "ecache.write_misses",
    "ecache.ifetch_misses": "ecache.ifetch_misses",
    "devices.timer_fires": "device.timer.fires",
    "devices.uart_tx_chars": "device.uart.tx_chars",
    "devices.uart_rx_delivered": "device.uart.rx_delivered",
    "devices.disk_reads": "device.disk.reads",
}

#: span name -> self-time metric, per pass
_PASS_SPANS = {
    "machine.build": "machine.build_s",
    "pipeline.run": "pipeline.run_s",
    "checkpoint.snapshot": "checkpoint.snapshot_s",
    "checkpoint.restore": "checkpoint.restore_s",
    "checkpoint.store_save": "checkpoint.store_save_s",
    "checkpoint.store_load": "checkpoint.store_load_s",
    "runner.run": "runner.self_s",
}

#: span name -> self-time metric, once per run (set-up)
_SETUP_SPANS = {
    "lang.compile": "lang.compile_s",
    "asm.assemble": "asm.assemble_s",
    "workloads.kernel_build": "workloads.kernel_build_s",
}

#: the highest percentile of 30 sweep jobs with ten jobs beyond it
JOB_PERCENTILE = 66

_OPS = PROGRAMS + DEMOS

PER_LAYER: List[Tuple[str, str, str]] = (
    [(metric, "s", "lower") for metric in _SETUP_SPANS.values()]
    + [(metric, "s", "lower") for metric in _PASS_SPANS.values()]
    + [("pipeline.host_ns_per_cycle", "ns", "lower")]
    + [(f"pipeline.cycles_per_s.{name}", "1/s", "higher") for name in _OPS]
    + [(metric, "count", "lower") for metric in _SIMULATED]
    + [("pipeline.cpi", "cycles/instr", "lower"),
       ("translate.coverage", "fraction", "higher")]
    + [(f"translate.coverage.{name}", "fraction", "higher") for name in _OPS]
    + [("translate.compile_s", "s", "lower"),
       ("translate.blocks_compiled", "count", "lower"),
       ("translate.entry_hit_rate", "fraction", "higher"),
       ("checkpoint.state_bytes", "bytes", "lower"),
       ("runner.jobs", "count", "higher"),
       ("runner.failed", "count", "lower"),
       ("runner.retries", "count", "lower"),
       ("runner.job_s.p50", "s", "lower"),
       (f"runner.job_s.p{JOB_PERCENTILE}", "s", "lower"),
       ("runner.job_s.n", "count", "higher"),
       ("runner.compute_s", "s", "lower")]
    + [(f"runner.compute_s.{sweep}", "s", "lower") for sweep in SWEEPS]
    + [("runner.overhead_s", "s", "lower"),
       ("runner.utilization", "fraction", "higher"),
       ("bench.self_s", "s", "lower"),
       ("trace.overhead_frac", "fraction", "lower")]
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive values."""
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values: Sequence[float], pct: int) -> float:
    """Nearest-rank percentile: ``pct``% of the values are at or below."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def host_factor(passes: Sequence[Pass]) -> float:
    """The reference-speed factor from every calibration in ``passes``."""
    return calibrate.factor(sample for one in passes for op in one.ops
                            for sample in op.host_s)


def _run_seconds(passes: Sequence[Pass]) -> Dict[str, List[float]]:
    """Per op with simulated cycles, its run seconds in every pass."""
    seconds: Dict[str, List[float]] = {}
    for one in passes:
        for op in one.ops:
            if op.cycles:
                seconds.setdefault(op.name, []).append(op.run_s)
    return seconds


def sim_cycles_per_s(passes: Sequence[Pass]) -> Dict[str, float]:
    """Per op, simulated cycles over the median scaled host seconds it
    spent inside ``Machine.run`` (for sweep jobs, inside the point
    function)."""
    cycles = {op.name: op.cycles for op in passes[0].ops}
    scale = host_factor(passes)
    return {name: cycles[name] / (statistics.median(seconds) * scale)
            for name, seconds in _run_seconds(passes).items()}


def wall_s(passes: Sequence[Pass]) -> float:
    """The median pass, scaled."""
    return statistics.median(p.wall_s for p in passes) * host_factor(passes)


def end_to_end(passes: Sequence[Pass], setup_s: float,
               peak_rss_mb: float) -> Dict[str, float]:
    """The end-to-end metrics of the untraced ``passes``."""
    return {
        "wall_s": wall_s(passes),
        "sim_cycles_per_s": geomean(list(sim_cycles_per_s(passes).values())),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(traced: Sequence[Pass], untraced: Sequence[Pass],
              tracer: Tracer, workers: int) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric, per pass, from the traced passes."""
    n = len(traced)
    metrics = {name: 0.0 for name, _, _ in PER_LAYER}
    self_s = tracer.self_seconds()
    for span, metric in _SETUP_SPANS.items():
        metrics[metric] = self_s.get(span, 0.0)
    for span, metric in _PASS_SPANS.items():
        metrics[metric] = self_s.get(span, 0.0) / n
    metrics["bench.self_s"] = (self_s.get("op", 0.0)
                               + self_s.get("pass", 0.0)) / n

    ops = traced[0].ops
    for metric, key in _SIMULATED.items():
        metrics[metric] = sum(op.sim.get(key, 0) for op in ops)
    cycles = metrics["pipeline.cycles"]
    if cycles:
        metrics["pipeline.cpi"] = cycles / metrics["pipeline.retired"]
        metrics["pipeline.host_ns_per_cycle"] = (
            metrics["pipeline.run_s"] / cycles * 1e9)
    for name, rate in sim_cycles_per_s(traced).items():
        if name in _OPS:
            metrics[f"pipeline.cycles_per_s.{name}"] = rate

    translate = [op for one in traced for op in one.ops if op.translate]
    translated = sum(op.translate["cycles"] for op in translate)
    if translated:
        metrics["translate.coverage"] = translated / (cycles * n)
        for op in ops:
            metrics[f"translate.coverage.{op.name}"] = (
                op.translate["cycles"] / op.cycles)
        entries = sum(op.translate["entries"] for op in translate)
        refused = sum(op.translate["entries_refused"] for op in translate)
        metrics["translate.entry_hit_rate"] = entries / (entries + refused)
    metrics["translate.compile_s"] = sum(
        op.translate["compile_s"] for op in translate) / n
    metrics["translate.blocks_compiled"] = sum(
        op.translate["compiled"] for op in translate) / n
    metrics["checkpoint.state_bytes"] = sum(
        op.extra.get("state_bytes", 0) for one in traced for op in one.ops) / n

    jobs = [op for one in traced for op in one.ops if "sweep" in op.extra]
    if jobs:
        durations = [op.seconds for op in jobs]
        compute = sum(op.run_s for op in jobs) / n
        wall = statistics.mean(p.wall_s for p in traced)
        metrics.update({
            "runner.jobs": len(jobs) / n,
            "runner.failed": sum(1 for op in jobs if op.errors) / n,
            "runner.retries": sum(op.extra["attempts"] - 1 for op in jobs) / n,
            "runner.job_s.p50": percentile(durations, 50),
            f"runner.job_s.p{JOB_PERCENTILE}":
                percentile(durations, JOB_PERCENTILE),
            "runner.job_s.n": len(durations),
            "runner.compute_s": compute,
            "runner.overhead_s": (sum(durations) - sum(
                sum(op.host_s) for op in jobs)) / n - compute,
            "runner.utilization": compute / (wall * workers),
        })
        for sweep in SWEEPS:
            metrics[f"runner.compute_s.{sweep}"] = sum(
                op.run_s for op in jobs if op.extra["sweep"] == sweep) / n
    metrics["trace.overhead_frac"] = wall_s(traced) / wall_s(untraced) - 1
    return metrics
