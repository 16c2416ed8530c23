"""Trace-driven replay of the Table 1 branch-scheme study.

The live evaluation (:func:`repro.analysis.branch_schemes.evaluate_scheme`)
needs a full profiling run of every workload on the cycle-exact pipeline
before it can cost a scheme.  But the study's inputs are tiny and
scheme-separable:

* per-branch dynamic (taken, not-taken) counts -- captured once per
  workload (this is the expensive pipeline run);
* per-branch slot costs for each scheme -- a cheap reorganization pass,
  captured once per (workload, scheme).

Both are stored as arrays in the :class:`~repro.traces.store.TraceStore`,
content-addressed by workload source hash and scheme parameters, and a
scheme evaluation replays as two aligned dot products.  Replayed
executions and cycle totals equal the live evaluation's exactly (the
same counts-and-plans intersection; pinned by tests/test_trace_replay.py).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.branch_schemes import SchemeEvaluation, WorkloadBranchCost
from repro.analysis.common import (
    conditional_plans_by_index,
    profiled_result,
    workload_branch_counts,
)
from repro.reorg.delay_slots import TABLE1_SCHEMES, BranchScheme
from repro.traces.store import CapturedTrace, TraceStore
from repro.workloads import PASCAL_SUITE, get


def workload_source_hash(name: str) -> str:
    """Content hash of a workload's source: edits invalidate its traces."""
    workload = get(name)
    material = f"{workload.is_assembly}\n{workload.source}"
    return hashlib.sha256(material.encode()).hexdigest()[:24]


# ------------------------------------------------------------------ capture
def branch_counts_descriptor(name: str) -> Dict[str, object]:
    return {"kind": "branch-counts", "workload": name,
            "source": workload_source_hash(name)}


def capture_branch_counts(name: str) -> CapturedTrace:
    """Profile one workload (the expensive cycle-exact run)."""
    counts = workload_branch_counts(name)
    index = np.array([i for i, _ in counts], dtype=np.int64)
    taken = np.array([t for _, (t, _) in counts], dtype=np.int64)
    not_taken = np.array([n for _, (_, n) in counts], dtype=np.int64)
    return CapturedTrace(
        arrays={"index": index, "taken": taken, "not_taken": not_taken},
        meta={"kind": "branch-counts", "workload": name})


def branch_plans_descriptor(name: str,
                            scheme: BranchScheme) -> Dict[str, object]:
    return {"kind": "branch-plans", "workload": name,
            "source": workload_source_hash(name),
            "slots": scheme.slots, "squash": scheme.squash,
            "squash_if_go": scheme.squash_if_go}


def capture_branch_plans(name: str, scheme: BranchScheme) -> CapturedTrace:
    """Reorganize one workload under one scheme and record slot costs."""
    plans = conditional_plans_by_index(profiled_result(name, scheme))
    index = np.array(sorted(plans), dtype=np.int64)
    cost_taken = np.array([int(plans[i].cost(True)) for i in index],
                          dtype=np.int64)
    cost_not_taken = np.array([int(plans[i].cost(False)) for i in index],
                              dtype=np.int64)
    return CapturedTrace(
        arrays={"index": index, "cost_taken": cost_taken,
                "cost_not_taken": cost_not_taken},
        meta={"kind": "branch-plans", "workload": name,
              "scheme": scheme.name})


# ------------------------------------------------------------------- replay
def _workload_cost(counts: CapturedTrace,
                   plans: CapturedTrace) -> WorkloadBranchCost:
    """Cost one workload under one scheme from stored arrays.

    Mirrors the live evaluation's semantics: only branches present in
    both the profile counts and the scheme's plan set contribute.
    """
    _, count_pos, plan_pos = np.intersect1d(
        counts["index"], plans["index"],
        assume_unique=True, return_indices=True)
    taken = counts["taken"][count_pos]
    not_taken = counts["not_taken"][count_pos]
    executions = int(taken.sum() + not_taken.sum())
    cycles = int(taken @ plans["cost_taken"][plan_pos]
                 + not_taken @ plans["cost_not_taken"][plan_pos])
    return WorkloadBranchCost(str(counts.meta.get("workload", "")),
                              executions, cycles)


def replay_scheme(scheme: BranchScheme, names: Sequence[str],
                  store: Optional[TraceStore] = None) -> SchemeEvaluation:
    """Trace-driven equivalent of :func:`evaluate_scheme`."""
    store = store or TraceStore()
    per_workload = []
    for name in names:
        counts = store.get_or_capture(branch_counts_descriptor(name),
                                      lambda: capture_branch_counts(name))
        plans = store.get_or_capture(
            branch_plans_descriptor(name, scheme),
            lambda: capture_branch_plans(name, scheme))
        cost = _workload_cost(counts, plans)
        per_workload.append(WorkloadBranchCost(name, cost.executions,
                                               cost.cycles))
    return SchemeEvaluation(scheme=scheme, per_workload=per_workload)


def table1_traced(names: Optional[Sequence[str]] = None,
                  store: Optional[TraceStore] = None
                  ) -> List[SchemeEvaluation]:
    """Trace-replayed Table 1 -- exact-equal to ``table1(names)``."""
    names = list(names) if names is not None else list(PASCAL_SUITE)
    store = store or TraceStore()
    return [replay_scheme(scheme, names, store=store)
            for scheme in TABLE1_SCHEMES]
