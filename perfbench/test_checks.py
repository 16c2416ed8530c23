"""Tests of the benchmark's own gates and bookkeeping.

Run from the repository root (about ten seconds)::

    python3 -m pytest perfbench -q
"""

import copy
import json
import pathlib
import random
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import repro.core  # noqa: E402,F401  (must load before repro.ecache)

from mxperf import checks, ledger, workloads  # noqa: E402
from mxperf.tracer import Tracer  # noqa: E402


def _listops_only(monkeypatch, pins):
    monkeypatch.setattr(workloads, "PROGRAMS", ("listops",))
    return workloads.ProgramsWorkload(Tracer(False), pins, jit=False)


def test_pinned_program_passes(monkeypatch):
    """An unmodified program reproduces its pins."""
    bench = _listops_only(monkeypatch, checks.load_pins())
    (op,) = bench.run_pass(random.Random(0), "pass0").ops
    assert op.errors == []


def test_perturbed_pin_fails_the_op_by_name(monkeypatch):
    """One perturbed pinned counter fails the op and names the counter."""
    pins = copy.deepcopy(checks.load_pins())
    pins["programs"]["listops"]["sim"]["pipeline.cycles"] += 1
    bench = _listops_only(monkeypatch, pins)
    (op,) = bench.run_pass(random.Random(0), "pass0").ops
    assert len(op.errors) == 1
    assert op.errors[0].startswith("listops: pipeline.cycles = ")


def test_sweep_mismatch_is_charged_to_its_job():
    """A changed job value is reported under its job id."""
    values = {"a": {"x": 1}, "b": {"x": 2}}
    pins = {"sweep": {
        "sha256": checks.digest(values),
        "jobs": {key: checks.digest(value) for key, value in values.items()},
    }}
    assert checks.check_sweep(values, pins) == {}
    errors = checks.check_sweep({"a": {"x": 1}, "b": {"x": 3}}, pins)
    assert sorted(errors) == ["b", "sweep"]


def test_self_time_subtracts_the_union_of_children():
    """Overlapping children are subtracted once, clipped to the parent."""
    tracer = Tracer(True)
    with tracer.span("outer") as outer:
        pass
    outer.t0, outer.t1 = 0.0, 10.0
    # two overlapping children cover [1, 6); one runs past the parent
    tracer.add("kid", "", 1.0, 4.0, outer, 1)
    tracer.add("kid", "", 2.0, 6.0, outer, 2)
    tracer.add("kid", "", 9.0, 12.0, outer, 2)
    self_s = tracer.self_seconds()
    assert self_s["outer"] == 10.0 - 5.0 - 1.0
    assert self_s["kid"] == 3.0 + 4.0 + 3.0


def test_benchmark_json_lists_the_reported_metrics():
    """BENCHMARK.json names exactly the metrics the benchmark reports."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
            == ledger.END_TO_END)
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
            == ledger.PER_LAYER)


def test_metric_map_names_only_reported_metrics():
    """The metric map refers only to reported metrics and workloads."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads_named = {w["name"] for w in spec["workloads"]}
    names = {name for name, _, _ in ledger.END_TO_END + ledger.PER_LAYER}
    metric_map = json.loads((ROOT / "perfbench" / "metric_map.json").read_text())
    for row in metric_map["layers"]:
        for metric in row["metrics"]:
            assert metric.replace("<program>", "sieve").replace(
                "<sweep>", "workload-cpi") in names, metric
        for claim in row["moves"] + row["should_not_move"]:
            assert claim["metric"] in names
            assert set(claim["workloads"]) <= workloads_named
