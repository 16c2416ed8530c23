"""Throughput layer: fan experiment sweeps across worker processes.

The paper's design studies were sweeps -- six branch schemes, every
512-word Icache organization, Ecache sizes, coprocessor interfaces --
each point an independent, deterministic simulation.  This package runs
those points in parallel:

* :mod:`repro.harness.runner` -- a :class:`Runner` that schedules
  picklable :class:`Job` specs over worker processes with per-job
  timeout, retry-once-on-crash, and deterministic result merging;
* :mod:`repro.harness.experiments` -- the registry of experiment point
  functions and the sweep grids built from them;
* :mod:`repro.harness.bench` -- benchmark telemetry: the grid's per-job
  status, the jit section and the aggregated counters, persisted to
  ``BENCH_pipeline.json`` at the repo root;
* :mod:`repro.harness.verdict` -- the one campaign verdict and exit
  code shared by the campaign commands and the ``check_results`` gates.
"""

from repro.harness.experiments import (EXPERIMENT_SWEEPS, default_jobs,
                                       sweep_jobs)
from repro.harness.runner import Job, JobResult, Runner, resolve

__all__ = [
    "EXPERIMENT_SWEEPS",
    "Job",
    "JobResult",
    "Runner",
    "default_jobs",
    "resolve",
    "sweep_jobs",
]
