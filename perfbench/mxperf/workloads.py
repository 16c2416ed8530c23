"""The four benchmark workloads: set-up and one pass of fixed work.

Each workload compiles its inputs once in ``__init__`` (that is
``setup_s``) and then runs passes; a pass is the workload's whole fixed
work and every op in it starts from a fresh ``Machine`` with empty
Icache and Ecache.  The seed reaches the model only as the order of the
ops and, for ``os``, the cycle at which each boot is cut; every pass
draws both afresh from the run's ``random.Random``.

Every call into a layer is wrapped in a :class:`~mxperf.tracer.Tracer`
span named after the layer, which is where the per-layer metrics come
from.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
import random
from typing import Any, Dict, List

import repro.core  # noqa: F401  (repro.core must load before repro.ecache)
from repro.checkpoint.store import SnapshotStore
from repro.core.config import MachineConfig, perfect_memory_config
from repro.core.processor import Machine
from repro.harness.experiments import default_jobs
from repro.harness.runner import Job, Runner
from repro.workloads import get
from repro.workloads.kernel import KERNEL_DEMOS, build_kernel_program

from mxperf import calibrate, checks
from mxperf.tracer import Tracer

#: the Stanford and Lisp programs of the ``interp`` and ``jit`` workloads
PROGRAMS = ("sieve", "bubble", "queens", "intmm", "towers", "perm",
            "quick", "listops")
#: the kernel demos of the ``os`` workload
DEMOS = ("kernel-echo", "kernel-pipeline", "kernel-slice")
#: cycle budget per program or boot; every one halts well inside it
MAX_CYCLES = 30_000_000
#: the sweep's jobs run through this wrapper in the workers
POINT_FN = "mxperf.points:timed_point"
#: simulated cycles between host-speed samples (``Machine.run`` takes an
#: absolute target, so running in slices changes no simulated state)
SAMPLE_CYCLES = 200_000


@dataclasses.dataclass
class Op:
    """One program run, one boot or one sweep job."""

    name: str
    errors: List[str]
    seconds: float = 0.0      #: host seconds of the whole op
    run_s: float = 0.0        #: host seconds inside Machine.run
    #: calibration loop seconds, sampled before every slice of the op
    host_s: List[float] = dataclasses.field(default_factory=list)
    cycles: int = 0           #: simulated cycles
    sim: Dict[str, Any] = dataclasses.field(default_factory=dict)
    #: translator facts: translated cycles, compile seconds, blocks,
    #: guarded entries taken and refused
    translate: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: checkpoint state size (os) or Runner facts (sweep)
    extra: Dict[str, Any] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class Pass:
    """One pass of a workload's fixed work."""

    wall_s: float
    ops: List[Op]
    traced: bool


def _run(machine: Machine, target: int, tracer: Tracer, run_id: str,
         host_s: List[float]) -> float:
    """Run to the absolute cycle ``target`` (or the halt) in slices,
    sampling the host speed before each; returns the seconds spent
    inside ``Machine.run``."""
    seconds = 0.0
    while not machine.halted and machine.stats.cycles < target:
        host_s.append(calibrate.host_seconds())
        with tracer.span("pipeline.run", run_id) as run:
            machine.run(min(target, machine.stats.cycles + SAMPLE_CYCLES))
        seconds += run.seconds
    return seconds


def _translate_facts(machine: Machine) -> Dict[str, float]:
    translator = machine.pipeline._translator
    if translator is None:
        return {"cycles": 0, "compile_s": 0.0, "compiled": 0,
                "entries": 0, "entries_refused": 0}
    stats = translator.stats
    return {"cycles": stats.cycles, "compile_s": translator.compile_s,
            "compiled": stats.compiled, "entries": stats.entries,
            "entries_refused": stats.entry_rejected}


class ProgramsWorkload:
    """``interp`` and ``jit``: the eight programs on default MachineConfig."""

    def __init__(self, tracer: Tracer, pins: Dict[str, Any], jit: bool):
        self.tracer = tracer
        self.pins = pins
        self.jit = jit
        self.programs = {}
        for name in PROGRAMS:
            with tracer.span("lang.compile", name):
                reorg = get(name).reorganize()
            with tracer.span("asm.assemble", name):
                self.programs[name] = reorg.unit.assemble()

    def run_pass(self, rng: random.Random, label: str) -> Pass:
        """One pass, its ops in a seeded order."""
        order = list(PROGRAMS)
        rng.shuffle(order)
        span = self.tracer.span
        ops = []
        with span("pass", label) as whole:
            for name in order:
                run_id = f"{label}/{name}"
                host_s: List[float] = []
                with span("op", run_id) as whole_op:
                    with span("machine.build", run_id):
                        machine = Machine(MachineConfig(jit=self.jit))
                        machine.load_program(self.programs[name])
                    run_s = _run(machine, MAX_CYCLES, self.tracer, run_id,
                                 host_s)
                    op = Op(name, checks.check_program(
                                name, machine, get(name).expected, self.pins),
                            run_s=run_s, cycles=machine.stats.cycles,
                            sim=checks.simulated(machine),
                            translate=_translate_facts(machine), host_s=host_s)
                op.seconds = whole_op.seconds
                ops.append(op)
        return Pass(whole.seconds, ops, self.tracer.enabled)


class OsWorkload:
    """``os``: the kernel demos, JIT on, snapshot/store/restore mid-boot."""

    def __init__(self, tracer: Tracer, pins: Dict[str, Any],
                 store_root: pathlib.Path):
        self.tracer = tracer
        self.pins = pins
        self.store = SnapshotStore(store_root)
        self.images = {}
        for name in DEMOS:
            with tracer.span("workloads.kernel_build", name):
                self.images[name] = build_kernel_program(
                    KERNEL_DEMOS[name], self._config())

    @staticmethod
    def _config() -> MachineConfig:
        return perfect_memory_config(jit=True)

    def cut(self, rng: random.Random, name: str) -> int:
        """A cycle in the middle half of the demo's pinned boot."""
        length = self.pins["demos"][name]["sim"]["pipeline.cycles"]
        return rng.randrange(length // 4, 3 * length // 4)

    def run_pass(self, rng: random.Random, label: str) -> Pass:
        """One pass, its ops in a seeded order."""
        order = list(DEMOS)
        rng.shuffle(order)
        cuts = {name: self.cut(rng, name) for name in order}
        span = self.tracer.span
        ops = []
        with span("pass", label) as whole:
            for name in order:
                ops.append(self._boot(name, cuts[name], f"{label}/{name}"))
        return Pass(whole.seconds, ops, self.tracer.enabled)

    def _boot(self, name: str, cut: int, run_id: str) -> Op:
        demo = KERNEL_DEMOS[name]
        span = self.tracer.span
        host_s: List[float] = []
        with span("op", run_id) as whole_op:
            with span("machine.build", run_id):
                machine = Machine(self._config())
                machine.load_program(self.images[name])
                for sector, words in demo.sectors:
                    machine.memory.disk.load(sector, list(words))
                for text, start, interval in demo.feeds:
                    machine.memory.uart.feed(text, start=start,
                                             interval=interval)
            before = _run(machine, cut, self.tracer, run_id, host_s)
            with span("checkpoint.snapshot", run_id):
                state = machine.snapshot()
            with span("checkpoint.store_save", run_id):
                path = self.store.save(run_id, state)
            with span("checkpoint.store_load", run_id):
                loaded = self.store.load(path)
            state_bytes = path.stat().st_size
            self.store.delete_run(run_id)
            with span("machine.build", run_id):
                resumed = Machine(self._config())
            with span("checkpoint.restore", run_id):
                resumed.restore(loaded)
            after = _run(resumed, MAX_CYCLES, self.tracer, run_id, host_s)
            first, second = _translate_facts(machine), _translate_facts(resumed)
            op = Op(
                name, checks.check_boot(name, resumed, demo.expected,
                                        self.pins),
                run_s=before + after, host_s=host_s,
                cycles=resumed.stats.cycles, sim=checks.simulated(resumed),
                translate={key: first[key] + second[key] for key in first},
                extra={"state_bytes": state_bytes, "cut": cut})
        op.seconds = whole_op.seconds
        return op


class SweepWorkload:
    """``sweep``: the quick experiment grid through the parallel Runner."""

    def __init__(self, tracer: Tracer, pins: Dict[str, Any], workers: int):
        self.tracer = tracer
        self.pins = pins
        self.workers = workers
        self.jobs = default_jobs(quick=True)

    def run_pass(self, rng: random.Random, label: str) -> Pass:
        """One pass, its ops in a seeded order."""
        jobs = list(self.jobs)
        rng.shuffle(jobs)
        wrapped = [Job(id=job.id, fn=POINT_FN,
                       params={"fn": job.fn, "params": job.params},
                       timeout=job.timeout, sweep=job.sweep)
                   for job in jobs]
        span = self.tracer.span
        with span("pass", label) as whole:
            with span("runner.run", label) as runner_span:
                results = Runner(max_workers=self.workers).run(wrapped)
            values = {r.job_id: r.value["value"] for r in results if r.ok}
            errors = checks.check_sweep(values, self.pins)
        ops = []
        for result in results:
            compute_s = 0.0
            if result.ok:
                point = result.value
                compute_s = point["t1"] - point["t0"]
                self.tracer.add("runner.compute", f"{label}/{result.job_id}",
                                point["t0"], point["t1"], runner_span,
                                point["pid"])
            job_errors = errors.pop(result.job_id, [])
            if not result.ok:
                job_errors.append(f"{result.job_id}: {result.status} "
                                  f"{result.error_kind}")
            cycles = 0
            if result.ok and result.sweep == "workload-cpi":
                cycles = values[result.job_id]["cycles"]
            ops.append(Op(result.job_id, job_errors,
                          seconds=result.duration, run_s=compute_s,
                          cycles=cycles,
                          host_s=[result.value["host_s"]] if result.ok else [],
                          extra={"sweep": result.sweep,
                                 "attempts": result.attempts}))
        # a merged-digest mismatch comes with some job's mismatch; report
        # it alongside the first of those
        leftover = [problem for problems in errors.values()
                    for problem in problems]
        if leftover:
            ([op for op in ops if op.errors] or ops)[0].errors.extend(leftover)
        return Pass(whole.seconds, ops, self.tracer.enabled)


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def build(name: str, tracer: Tracer, pins: Dict[str, Any],
          out_dir: pathlib.Path):
    """Set up the named workload."""
    if name == "interp":
        return ProgramsWorkload(tracer, pins, jit=False)
    if name == "jit":
        return ProgramsWorkload(tracer, pins, jit=True)
    if name == "os":
        return OsWorkload(tracer, pins, out_dir / "checkpoints")
    if name == "sweep":
        return SweepWorkload(tracer, pins, nproc())
    raise ValueError(f"unknown workload {name!r}")
