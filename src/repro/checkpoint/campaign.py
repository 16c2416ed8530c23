"""The ``repro checkpoint`` campaign: the standing recovery gates.

Three sections, each a falsifiable claim about the checkpoint layer:

* **equivalence** -- for every named workload, the 4-node parallel
  sieve, and a band of fuzz seeds, restore a mid-run snapshot into a
  *fresh* target, finish, and require its signature (registers, MD/PSW,
  memory, console, devices, caches, all pipeline counters; bus and
  global cycles on a MultiMachine) to be bit-identical to an
  uninterrupted run -- with the JIT both off and on.  The restore and
  the signature are the ones of :mod:`repro.checkpoint.equivalence`,
  which the fuzz oracle and the devices gate share.
* **chaos** -- run a grid of checkpointed simulation jobs under the
  process harness with a :class:`~repro.harness.runner.ChaosMonkey`
  that SIGKILLs doomed workers *right after their first snapshot
  commits*.  The retried worker must resume from the surviving
  generation (``checkpoint.resumes > 0``) and the merged metrics must
  be byte-identical to a serial, uninterrupted reference run.
* **corruption** -- build a two-generation snapshot ladder, then
  truncate the newest, flip a byte under its sha, forge a bad format
  version, and attempt a wrong-config restore.  Each must raise its
  named error, and ``load_latest`` must fall back to the older good
  generation (never load garbage).

:func:`verdict` decides both the CLI exit code and the
``check_results --checkpoint`` gate: 0 = all gates green, 2 = a gate
found a real divergence/recovery failure, 1 = the harness itself
misbehaved (a job died in an unclassified way).
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import signal
import tempfile
from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import MachineConfig
from repro.core.processor import Machine
from repro.harness.runner import Job, Runner
from repro.harness.verdict import Verdict, write_report
from repro.checkpoint.equivalence import (mismatches, restore_midrun,
                                          signature)
from repro.checkpoint.run import CheckpointStats, run_with_checkpoints
from repro.checkpoint.state import (
    FORMAT,
    SnapshotConfigError,
    SnapshotFormatError,
    SnapshotIntegrityError,
    machine_state,
    restore_machine,
)
from repro.checkpoint.store import SnapshotStore, state_cycles
from repro.store import REPO_ROOT

DEFAULT_REPORT = REPO_ROOT / "CHECKPOINT_campaign.json"

#: each chaos job simulates well under a second of work; a minute means
#: a hang, not a slow machine
JOB_TIMEOUT = 120.0

#: named single-core workloads for the equivalence and chaos sections
WORKLOADS = ("sieve", "bubble")

#: cycle budget of every equivalence and chaos run; each halts well inside
MAX_CYCLES = 10_000_000


# ------------------------------------------------------------ equivalence
def _equivalence_cases(fuzz_seeds: int) -> List[Dict[str, Any]]:
    cases: List[Dict[str, Any]] = []
    for name in WORKLOADS:
        for jit in (False, True):
            cases.append({"kind": "workload", "name": name, "jit": jit})
    cases.append({"kind": "multi", "name": "psieve", "nodes": 4})
    for seed in range(fuzz_seeds):
        for jit in (False, True):
            cases.append({"kind": "fuzz", "seed": seed,
                          "mode": ("isa", "lang")[seed % 2], "jit": jit})
    return cases


def _workload_program(name: str):
    from repro.workloads import cached_program

    return cached_program(name)


def _check_restore_case(case: Dict[str, Any]) -> Dict[str, Any]:
    """Restore a named workload (or the parallel sieve on a
    MultiMachine) from a halfway snapshot into a fresh target, finish,
    and compare its signature with the uninterrupted run's."""
    from repro.multi.system import MultiMachine
    from repro.workloads.parallel import parallel_program

    multi = case["kind"] == "multi"

    def loaded():
        if multi:
            target = MultiMachine(case["nodes"])
            target.load_program(parallel_program(case["name"],
                                                 case["nodes"]))
        else:
            target = Machine(MachineConfig(jit=case["jit"]))
            target.load_program(_workload_program(case["name"]))
        return target

    def halted(target) -> bool:
        return target.all_halted if multi else target.halted

    straight = loaded()
    straight.run(MAX_CYCLES)
    if not halted(straight):
        return {"status": "no-halt", "detail": f"{case['name']} never halted"}
    total = straight.cycles if multi else straight.stats.cycles
    restored, state = restore_midrun(loaded(), max(1, total // 2),
                                     MAX_CYCLES)
    if not halted(restored):
        return {"status": "no-halt",
                "detail": f"{case['name']} resumed run hung"}
    keys = mismatches(signature(straight), signature(restored))
    if keys:
        return {"status": "diverged", "detail": f"signature keys {keys}"}
    return {"status": "ok", "cycles": total,
            "snapshot_cycles": state_cycles(state)}


def _check_fuzz_case(case: Dict[str, Any]) -> Dict[str, Any]:
    """One fuzz seed through the oracle's checkpoint differential."""
    from repro.fuzz.gen import GenConfig, generate_program
    from repro.fuzz.oracle import (
        check_checkpoint_equivalence,
        programs_for,
        run_pipeline,
    )

    generated = generate_program(case["seed"],
                                 GenConfig(mode=case["mode"], quick=True))
    _naive, reorganized = programs_for(generated)
    reference = run_pipeline(reorganized, generated)
    report = check_checkpoint_equivalence(reorganized, generated,
                                          reference, jit=case["jit"])
    if report is None:
        return {"status": "ok"}
    return {"status": "diverged", "detail": report.kind,
            "mismatches": report.mismatches[:3]}


def equivalence_point(case: Dict[str, Any]) -> Dict[str, Any]:
    """One equivalence job (also the picklable Runner entry point)."""
    check = _check_fuzz_case if case["kind"] == "fuzz" else _check_restore_case
    return {**case, **check(case)}


def _case_id(case: Dict[str, Any]) -> str:
    if case["kind"] == "workload":
        tail = f"{case['name']}-jit{int(case['jit'])}"
    elif case["kind"] == "multi":
        tail = f"{case['name']}-n{case['nodes']}"
    else:
        tail = f"seed{case['seed']:03d}-{case['mode']}-jit{int(case['jit'])}"
    return f"equiv/{case['kind']}-{tail}"


def run_equivalence(fuzz_seeds: int = 50,
                    workers: Optional[int] = None,
                    parallel: bool = True) -> Dict[str, Any]:
    """The restore-equivalence gate over workloads + fuzz seeds."""
    cases = _equivalence_cases(fuzz_seeds)
    jobs = [Job(id=_case_id(case),
                fn="repro.checkpoint.campaign:equivalence_point",
                params={"case": case}, timeout=JOB_TIMEOUT,
                sweep="checkpoint")
            for case in cases]
    runner = Runner(max_workers=workers, default_timeout=JOB_TIMEOUT)
    results = runner.run(jobs, parallel=parallel)

    rows: List[Dict[str, Any]] = []
    harness = 0
    for result in results:
        if result.ok and isinstance(result.value, dict):
            rows.append({"id": result.job_id, **result.value})
        else:
            harness += 1
            rows.append({"id": result.job_id, "status": result.status,
                         "error_kind": result.error_kind,
                         "error": result.error})
    ok = sum(1 for row in rows if row["status"] == "ok")
    return {"cases": len(cases), "ok": ok,
            "diverged": len(rows) - ok - harness,
            "harness_failures": harness,
            "failures": [row for row in rows if row["status"] != "ok"]}


# ------------------------------------------------------------------ chaos
def checkpoint_point(workload: str, run_id: str, store_root: str,
                     every_cycles: int = 2_000,
                     kill_at_snapshot: int = 0) -> Dict[str, Any]:
    """One chaos job: run ``workload`` under the checkpoint watchdog.

    When ``kill_at_snapshot`` is nonzero *and* the store has no prior
    generations for ``run_id`` (a cold first attempt), the process
    SIGKILLs itself right after that snapshot commits -- a worst-case
    mid-run crash with durable state on disk.  The harness retry then
    enters with generations present, resumes, and finishes the run.
    """
    store = SnapshotStore(pathlib.Path(store_root))
    cold = not store.generations(run_id)

    program = _workload_program(workload)
    machine = Machine()
    machine.load_program(program)

    def after_snapshot(count: int, _stats: CheckpointStats) -> None:
        if kill_at_snapshot and cold and count == kill_at_snapshot:
            os.kill(os.getpid(), signal.SIGKILL)

    stats = run_with_checkpoints(machine, store, run_id,
                                 max_cycles=MAX_CYCLES,
                                 every_cycles=every_cycles,
                                 after_snapshot=after_snapshot)
    if not machine.halted:
        raise RuntimeError(f"{workload} did not halt under checkpointing")
    metrics = machine.metrics().snapshot()
    return {"metrics": metrics,
            "console": list(machine.console.values),
            "checkpoint": stats.as_metrics()}


def _chaos_reference(workload: str) -> Dict[str, Any]:
    """The uninterrupted, checkpoint-free reference for one workload."""
    machine = Machine()
    machine.load_program(_workload_program(workload))
    machine.run(MAX_CYCLES)
    return {"metrics": machine.metrics().snapshot(),
            "console": list(machine.console.values)}


def run_chaos(workers: Optional[int] = None,
              jobs_per_workload: int = 2,
              store_root: Optional[pathlib.Path] = None) -> Dict[str, Any]:
    """The chaos-resume gate: SIGKILLed checkpointed jobs must resume
    and merge byte-identical to serial uninterrupted runs."""
    own_tmp: Optional[tempfile.TemporaryDirectory] = None
    if store_root is None:
        own_tmp = tempfile.TemporaryDirectory(prefix="ckpt-chaos-")
        store_root = pathlib.Path(own_tmp.name)
    try:
        jobs = []
        doomed = set()
        for workload in WORKLOADS:
            for copy in range(jobs_per_workload):
                job_id = f"chaos/{workload}-{copy}"
                # the first copy of each workload is the doomed one: it
                # SIGKILLs itself right after snapshot 1 commits
                kill_at = 1 if copy == 0 else 0
                if kill_at:
                    doomed.add(job_id)
                jobs.append(Job(
                    id=job_id,
                    fn="repro.checkpoint.campaign:checkpoint_point",
                    params={"workload": workload,
                            "run_id": job_id.replace("/", "-"),
                            "store_root": str(store_root),
                            "every_cycles": 2_000,
                            "kill_at_snapshot": kill_at},
                    timeout=JOB_TIMEOUT,
                    sweep="checkpoint"))

        runner = Runner(max_workers=workers, default_timeout=JOB_TIMEOUT)
        results = runner.run(jobs, parallel=True)
        merged = {result.job_id: result for result in results}

        references = {workload: _chaos_reference(workload)
                      for workload in WORKLOADS}

        mismatches: List[Dict[str, Any]] = []
        harness = 0
        resumes = 0
        killed_retried = 0
        for job in jobs:
            result = merged[job.id]
            if not result.ok or not isinstance(result.value, dict):
                harness += 1
                mismatches.append({"id": job.id, "kind": "harness",
                                   "detail": result.error or result.status})
                continue
            value = result.value
            resumes += value["checkpoint"].get("checkpoint.resumes", 0)
            if job.id in doomed and result.status == "retried-ok":
                killed_retried += 1
            reference = references[job.params["workload"]]
            got = {"metrics": value["metrics"], "console": value["console"]}
            if (json.dumps(got, sort_keys=True)
                    != json.dumps(reference, sort_keys=True)):
                keys = [key for key in reference["metrics"]
                        if reference["metrics"][key]
                        != value["metrics"].get(key)]
                mismatches.append({"id": job.id, "kind": "diverged",
                                   "detail": f"metric keys {keys[:5]}"})
        return {
            "jobs": len(jobs),
            "doomed": len(doomed),
            "killed_retried": killed_retried,
            "resumes": resumes,
            "harness_failures": harness,
            "diverged": sum(1 for m in mismatches
                            if m["kind"] == "diverged"),
            "mismatches": mismatches,
            "ok": not mismatches and resumes > 0,
        }
    finally:
        if own_tmp is not None:
            own_tmp.cleanup()


# ------------------------------------------------------------- corruption
def _corruption_ladder(store: SnapshotStore,
                       run_id: str) -> Tuple[Machine, List[pathlib.Path]]:
    """Two honest generations of a sieve run, newest last."""
    program = _workload_program("sieve")
    machine = Machine()
    machine.load_program(program)
    machine.run(2_000)
    store.save(run_id, machine.snapshot())
    machine.run(machine.stats.cycles + 2_000)
    store.save(run_id, machine.snapshot())
    return machine, store.generations(run_id)


def run_corruption(store_root: Optional[pathlib.Path] = None
                   ) -> Dict[str, Any]:
    """The corruption-rejection gate: every tampered snapshot must raise
    its named error and ``load_latest`` must fall back a generation."""
    own_tmp: Optional[tempfile.TemporaryDirectory] = None
    if store_root is None:
        own_tmp = tempfile.TemporaryDirectory(prefix="ckpt-corrupt-")
        store_root = pathlib.Path(own_tmp.name)
    try:
        cases: List[Dict[str, Any]] = []

        def attempt(name: str, expect: type, fn) -> None:
            try:
                fn()
            except expect as error:
                cases.append({"case": name, "status": "ok",
                              "error": type(error).__name__})
            except Exception as error:  # noqa: BLE001 -- report, don't mask
                cases.append({"case": name, "status": "wrong-error",
                              "error": f"{type(error).__name__}: {error}"})
            else:
                cases.append({"case": name, "status": "not-rejected",
                              "error": None})

        # -- truncated newest generation ------------------------------
        store = SnapshotStore(pathlib.Path(store_root) / "truncate")
        machine, ladder = _corruption_ladder(store, "victim")
        good_older = ladder[0]
        newest = ladder[-1]
        data = newest.read_bytes()
        newest.write_bytes(data[:len(data) // 2])
        attempt("truncated", SnapshotIntegrityError,
                lambda: store.load(newest))
        state, path = store.load_latest("victim")
        cases.append({
            "case": "truncated-fallback",
            "status": "ok" if (path == good_older
                               and state is not None) else "no-fallback",
            "error": None if path == good_older else str(path)})

        # -- single byte flipped under the sha ------------------------
        store = SnapshotStore(pathlib.Path(store_root) / "flip")
        machine, ladder = _corruption_ladder(store, "victim")
        newest = ladder[-1]
        data = bytearray(newest.read_bytes())
        data[len(data) // 2] ^= 0x01
        newest.write_bytes(bytes(data))
        attempt("flipped-byte", SnapshotIntegrityError,
                lambda: store.load(newest))
        state, path = store.load_latest("victim")
        cases.append({
            "case": "flipped-byte-fallback",
            "status": "ok" if path == ladder[0] else "no-fallback",
            "error": None if path == ladder[0] else str(path)})

        # -- forged format version (valid sha!) -----------------------
        store = SnapshotStore(pathlib.Path(store_root) / "format")
        machine, ladder = _corruption_ladder(store, "victim")
        forged = json.loads(ladder[-1].read_text())
        forged["format"] = FORMAT + 999
        store.save("victim", forged)
        attempt("format-version", SnapshotFormatError,
                lambda: store.load(store.generations("victim")[-1]))

        # -- wrong-config restore -------------------------------------
        state = machine_state(machine)
        other = Machine(MachineConfig(
            icache=dataclasses.replace(MachineConfig().icache, ways=4)))
        other.load_program(_workload_program("sieve"))
        attempt("wrong-config", SnapshotConfigError,
                lambda: restore_machine(other, state))

        failures = [case for case in cases if case["status"] != "ok"]
        return {"cases": cases, "failures": len(failures),
                "ok": not failures}
    finally:
        if own_tmp is not None:
            own_tmp.cleanup()


# ------------------------------------------------------------------ driver
def run_campaign(fuzz_seeds: int = 50,
                 workers: Optional[int] = None,
                 parallel: bool = True,
                 quick: bool = False,
                 output: Optional[pathlib.Path] = None) -> Dict[str, Any]:
    """Run all three gates and persist the structured report."""
    if quick:
        fuzz_seeds = min(fuzz_seeds, 6)
    equivalence = run_equivalence(fuzz_seeds, workers=workers,
                                  parallel=parallel)
    chaos = run_chaos(workers=workers)
    corruption = run_corruption()

    payload: Dict[str, Any] = {
        "schema": 1,
        "config": {"fuzz_seeds": fuzz_seeds, "quick": quick},
        "equivalence": equivalence,
        "chaos": chaos,
        "corruption": corruption,
        "ok": (equivalence["diverged"] == 0
               and equivalence["harness_failures"] == 0
               and chaos["ok"] and corruption["ok"]),
    }
    write_report(payload, output, DEFAULT_REPORT)
    return payload


def verdict(payload: Dict[str, Any]) -> Verdict:
    """The report's verdict, for ``repro checkpoint`` and ``--checkpoint``.

    All three gates of the module docstring must hold; the chaos gate
    needs at least one *proven* resume (``resumes > 0``), and the
    corruption gate at least one case.
    """
    result = Verdict()
    for section in ("equivalence", "chaos", "corruption"):
        if not isinstance(payload.get(section), dict):
            result.incomplete.append(
                f"checkpoint file: section '{section}' is missing or not "
                "an object (partial or interrupted campaign?)")
    if result.incomplete:
        return result
    equivalence = payload["equivalence"]
    if equivalence.get("diverged"):
        result.findings.append(
            f"checkpoint file: {equivalence['diverged']} restore-"
            "equivalence case(s) diverged from the straight run "
            "(see the report's 'equivalence.failures')")
    if equivalence.get("harness_failures"):
        result.harness.append(
            f"checkpoint file: {equivalence['harness_failures']} "
            "equivalence job(s) failed in the harness")
    chaos = payload["chaos"]
    if not chaos.get("resumes"):
        result.findings.append(
            "checkpoint file: chaos gate recorded zero resumes -- no "
            "killed job provably restarted from a snapshot")
    if chaos.get("diverged"):
        result.findings.append(
            f"checkpoint file: {chaos['diverged']} chaos job(s) merged "
            "results that differ from the serial uninterrupted reference")
    if chaos.get("harness_failures"):
        result.harness.append(
            f"checkpoint file: {chaos['harness_failures']} chaos job(s) "
            "failed in the harness")
    cases = payload["corruption"].get("cases")
    if not isinstance(cases, list) or not cases:
        result.findings.append("checkpoint file: section 'corruption' has "
                               "no cases")
        return result
    for case in cases:
        if not isinstance(case, dict):
            result.findings.append(f"checkpoint file: corruption case "
                                   f"{case!r} is not an object")
        elif case.get("status") != "ok":
            result.findings.append(
                f"checkpoint file: corruption case "
                f"'{case.get('case')}' ended '{case.get('status')}' "
                f"({case.get('error')})")
    return result


def format_summary(payload: Dict[str, Any]) -> str:
    """Human-readable one-screen summary of a campaign report."""
    equivalence = payload["equivalence"]
    chaos = payload["chaos"]
    corruption = payload["corruption"]
    lines = [
        f"checkpoint campaign "
        f"({payload['config']['fuzz_seeds']} fuzz seeds"
        + (", quick" if payload["config"].get("quick") else "") + ")",
        f"  equivalence     {equivalence['ok']}/{equivalence['cases']} "
        f"bit-identical, {equivalence['diverged']} diverged, "
        f"{equivalence['harness_failures']} harness",
        f"  chaos           {chaos['jobs']} jobs, {chaos['doomed']} "
        f"SIGKILLed, {chaos['killed_retried']} retried, "
        f"{chaos['resumes']} resumes, {chaos['diverged']} diverged",
        f"  corruption      {len(corruption['cases'])} cases, "
        f"{corruption['failures']} failures",
    ]
    for row in equivalence["failures"][:5]:
        lines.append(f"  ! {row['id']}: {row['status']} "
                     f"{row.get('detail', '')}")
    for row in chaos["mismatches"][:5]:
        lines.append(f"  ! {row['id']}: {row['kind']} {row['detail']}")
    for case in corruption["cases"]:
        if case["status"] != "ok":
            lines.append(f"  ! corruption/{case['case']}: "
                         f"{case['status']} ({case['error']})")
    return "\n".join(lines)
