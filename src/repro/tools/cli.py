"""Command-line front end: run, disassemble, compile, visualize.

Usage::

    python -m repro.tools.cli run program.s [--stats] [--trace N]
    python -m repro.tools.cli compile program.spl [--emit-asm] [--run]
    python -m repro.tools.cli disasm program.s
    python -m repro.tools.cli workload sieve [--stats]
    python -m repro.tools.cli trace sieve [--output TRACE.json]
    python -m repro.tools.cli trace psieve --nodes 4 [--bus-latency L]
    python -m repro.tools.cli bench [--quick] [--workers N] [--multi]
    python -m repro.tools.cli faults [--seeds N] [--quick] [--chaos R]
    python -m repro.tools.cli faults --multi-nodes 4 [--seeds N] [--quick]
    python -m repro.tools.cli fuzz [--seeds N] [--quick] [--max-seconds S]
    python -m repro.tools.cli run examples/boot.s --devices
    python -m repro.tools.cli devices [--quick]
    python -m repro.tools.cli run program.s --checkpoint-every 100000
    python -m repro.tools.cli run program.s --resume --checkpoint-id ID
    python -m repro.tools.cli checkpoint [--fuzz-seeds N] [--quick]

``run`` executes assembly on the paper-configuration machine; ``compile``
sends SPL source through the compiler + reorganizer; ``workload`` runs a
registered benchmark.  ``--trace N`` prints a pipeline diagram of the
first N cycles.  ``trace`` runs a workload under the telemetry cycle
tracer (:mod:`repro.telemetry`) and writes Chrome/Perfetto trace JSON
for ``ui.perfetto.dev`` (see ``docs/OBSERVABILITY.md``).  ``bench``
runs the experiment grid once through the parallel Runner, plus the
jit-vs-interpreter section, and writes
``BENCH_pipeline.json`` at the repo root; ``bench --multi`` adds the
multiprocessor scaling sweep (nodes x bus latency x invalidation) as the
payload's ``multi`` section.  ``trace --nodes N`` runs a parallel
workload on an N-node :class:`~repro.multi.system.MultiMachine` and
exports one Perfetto process per node so cross-node stall interleaving
(including bus-wait spans) is visible on one timeline.  ``faults`` runs
a seeded fault-injection campaign (see :mod:`repro.faults`) across the
parallel runner and writes ``FAULTS_campaign.json``; ``faults
--multi-nodes N`` instead runs the node-level multiprocessor campaign
(:mod:`repro.faults.multi`), writing ``FAULTS_multi.json``.  ``fuzz`` runs a seeded
differential-fuzzing campaign (see :mod:`repro.fuzz`) cross-checking the
golden, pipeline, and trace-replay models on generated programs, writing
``FUZZ_campaign.json``.

``run``/``compile``/``workload`` accept ``--devices`` to feed the
canonical UART boot stimulus (:data:`repro.workloads.kernel.
DEFAULT_BOOT_FEED`) into the machine's receive line and print the UART
boot log plus the device counters after the run -- ``repro run
examples/boot.s --devices`` boots the kernel-lite echo demo (see
``docs/SOFTWARE.md``).  ``devices`` runs the standing software-stack
gate (:mod:`repro.harness.devices`): every kernel-lite demo booted
interpretive, under the JIT (bit-exact or fail), and across a mid-boot
checkpoint/restore, written to ``DEVICES_results.json``.

``run``/``compile``/``workload`` accept ``--checkpoint-every K`` to
snapshot the machine every K cycles into the content-addressed store
under ``.trace_cache/checkpoints/`` (see :mod:`repro.checkpoint`), and
``--resume`` to continue a crashed run from its latest valid snapshot
(``--checkpoint-id`` names the ladder).  ``checkpoint`` runs the
standing recovery gates -- restore equivalence, chaos resume, snapshot
corruption -- and writes ``CHECKPOINT_campaign.json``.

The campaign commands (``faults`` with or without ``--multi-nodes``,
``fuzz``, ``checkpoint``, ``devices``) exit with their campaign's
``verdict`` (:mod:`repro.harness.verdict`), the same one the
``check_results`` gate judges the report by: **0** clean, **1** a
harness failure, **2** a classified finding, which outranks a harness
failure.  The README's exit table has the details.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import List, Optional

from repro.asm import assemble, listing, parse
from repro.coproc import Fpu
from repro.core import Machine, MachineConfig, perfect_memory_config
from repro.harness.verdict import exit_code
from repro.lang import compile_spl
from repro.store import write_durable
from repro.tools.pipeview import PipelineTracer


def _print_stats(machine: Machine) -> None:
    # read the audited telemetry snapshot, not raw stat attributes
    snap = machine.metrics().snapshot()
    cpi = snap["pipeline.cpi"]
    print(f"cycles        {snap['pipeline.cycles']}")
    print(f"instructions  {snap['pipeline.instructions.retired']} "
          f"({snap['pipeline.instructions.noops']} no-ops, "
          f"{snap['pipeline.instructions.squashed']} squashed)")
    print(f"CPI           {cpi:.3f}")
    print(f"branches      {snap['pipeline.branch.executed']} "
          f"({snap['pipeline.branch.taken']} taken), "
          f"jumps {snap['pipeline.jumps']}")
    print(f"loads/stores  {snap['pipeline.mem.loads']}/"
          f"{snap['pipeline.mem.stores']}")
    print(f"icache        {snap['icache.miss_rate']:.1%} miss rate, "
          f"{snap['pipeline.stall.icache_miss']} stall cycles")
    print(f"ecache        {snap['ecache.miss_rate']:.1%} miss rate, "
          f"{snap['pipeline.stall.ecache_late_miss']} data stall cycles")
    if snap.get("core.translate.entries.taken"):
        coverage = (snap["core.translate.cycles"] / snap["pipeline.cycles"]
                    if snap["pipeline.cycles"] else 0.0)
        print(f"jit           {snap['core.translate.blocks.compiled']} "
              f"blocks, {snap['core.translate.entries.taken']} entries, "
              f"{coverage:.1%} cycle coverage")
    print(f"@20 MHz       {20.0 / cpi if cpi else 0.0:.1f} sustained MIPS")


def _write_metrics(path: str, metrics) -> None:
    """Write a metrics snapshot durably: a crash leaves the old file."""
    write_durable(Path(path), (metrics.to_json() + "\n").encode("utf-8"))
    print(f"metrics written to {path}")


def _run_machine(program, args) -> int:
    config = perfect_memory_config() if args.ideal else MachineConfig()
    if args.jit:
        config = dataclasses.replace(config, jit=True)
    machine = Machine(config)
    machine.attach_coprocessor(Fpu())
    machine.load_program(program)
    if args.devices:
        from repro.workloads.kernel import DEFAULT_BOOT_FEED

        text, start, interval = DEFAULT_BOOT_FEED
        machine.memory.uart.feed(text, start=start, interval=interval)
    translator = machine.pipeline._translator
    if args.jit_trace and translator is not None:
        translator.record_spans = True
    if args.trace:
        tracer = PipelineTracer(machine)
        tracer.step(args.trace)
        print(tracer.render())
        print()
    if args.checkpoint_every or args.resume:
        from repro.checkpoint import SnapshotStore, run_with_checkpoints

        store = SnapshotStore()
        run_id = args.checkpoint_id or "cli"
        ckpt = run_with_checkpoints(
            machine, store, run_id, max_cycles=args.max_cycles,
            every_cycles=args.checkpoint_every or 250_000,
            resume=args.resume)
        print(f"checkpoint: {ckpt.snapshots} snapshot(s), "
              f"{ckpt.resumes} resume(s), {ckpt.bytes_written} bytes "
              f"under {store.run_dir(run_id)}")
    else:
        machine.run(args.max_cycles)
    if args.jit_trace and translator is not None:
        from repro.telemetry import write_jit_trace

        write_jit_trace(args.jit_trace, translator.spans)
        print(f"jit trace written to {args.jit_trace} "
              f"({len(translator.spans)} block activations)")
    if machine.console.values:
        print("console:", machine.console.values)
    if machine.console.text:
        print("console text:", machine.console.text)
    if args.devices:
        print("uart boot log:")
        for line in machine.memory.uart.tx_text.splitlines():
            print(f"  | {line}")
        for name, value in sorted(machine.memory.device_metrics().items()):
            print(f"  {name:<26} {value}")
    if not machine.halted:
        print(f"warning: did not halt within {args.max_cycles} cycles",
              file=sys.stderr)
    if args.stats:
        _print_stats(machine)
    return 0 if machine.halted else 1


def cmd_run(args) -> int:
    with open(args.file) as handle:
        source = handle.read()
    return _run_machine(assemble(source), args)


def cmd_compile(args) -> int:
    with open(args.file) as handle:
        source = handle.read()
    compilation = compile_spl(source)
    if args.emit_asm:
        print(compilation.asm_text)
        return 0
    if args.listing:
        print(listing(compilation.program()))
        return 0
    return _run_machine(compilation.program(), args)


def cmd_disasm(args) -> int:
    with open(args.file) as handle:
        source = handle.read()
    print(listing(assemble(source)))
    return 0


def cmd_workload(args) -> int:
    from repro.workloads import get

    workload = get(args.name)
    return _run_machine(workload.program(), args)


def _cmd_trace_multi(args) -> int:
    """``trace --nodes N``: one Perfetto process per node."""
    from repro.multi import MultiMachine
    from repro.telemetry import Metrics, write_multi_trace
    from repro.workloads.parallel import parallel_program

    try:
        program = parallel_program(args.target, args.nodes)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1
    system = MultiMachine(args.nodes, MachineConfig(),
                          bus_latency=args.bus_latency)
    system.load_program(program)
    metrics = Metrics()
    tracers = system.attach_tracers(capacity=args.capacity, metrics=metrics)
    system.run(args.max_cycles)
    system.metrics(metrics)
    write_multi_trace(args.output, tracers)
    records = sum(len(t.records) for t in tracers)
    spans = sum(len(t.stall_spans) for t in tracers)
    print(f"multi trace written to {args.output} ({args.nodes} nodes, "
          f"{records} instruction records, {spans} stall spans, "
          f"bus: {system.bus.acquisitions} acquisitions / "
          f"{system.bus.contention_cycles} contention cycles) -- open in "
          "ui.perfetto.dev")
    if args.metrics_output:
        _write_metrics(args.metrics_output, metrics)
    if not system.all_halted:
        print(f"warning: did not halt within {args.max_cycles} cycles",
              file=sys.stderr)
        return 1
    return 0


def cmd_trace(args) -> int:
    import json
    import os

    from repro.telemetry import CycleTracer, Metrics, write_trace

    if args.nodes:
        return _cmd_trace_multi(args)
    config = perfect_memory_config() if args.ideal else MachineConfig()
    machine = Machine(config)
    machine.attach_coprocessor(Fpu())
    if os.path.exists(args.target):
        with open(args.target) as handle:
            source = handle.read()
        if args.target.endswith(".spl"):
            machine.load_program(compile_spl(source).program())
        else:
            machine.load_program(assemble(source))
    else:
        from repro.workloads import get

        machine.load_program(get(args.target).program())
    metrics = Metrics()
    tracer = CycleTracer(machine, capacity=args.capacity, metrics=metrics)
    tracer.run(args.max_cycles)
    machine.metrics(metrics)
    write_trace(args.output, tracer)
    print(f"trace written to {args.output} "
          f"({len(tracer.records)} instruction records, "
          f"{len(tracer.stall_spans)} stall spans, "
          f"{len(tracer.instants)} events) -- open in ui.perfetto.dev")
    if args.metrics_output:
        _write_metrics(args.metrics_output, metrics)
    if args.stats:
        _print_stats(machine)
    if not machine.halted:
        print(f"warning: did not halt within {args.max_cycles} cycles",
              file=sys.stderr)
        return 1
    return 0


def cmd_bench(args) -> int:
    from repro.harness.bench import collect, format_summary
    from repro.harness.runner import OK_STATUSES

    multi_nodes = None
    if args.multi_nodes:
        multi_nodes = tuple(int(part) for part
                            in args.multi_nodes.split(","))
    payload = collect(quick=args.quick, workers=args.workers,
                      timeout=args.timeout,
                      output=args.output,
                      metrics_output=args.metrics_output,
                      multi=args.multi or bool(args.multi_nodes),
                      multi_nodes=multi_nodes,
                      multi_only=args.multi_only)
    print(format_summary(payload))
    failed = [job_id for job_id, row in payload["experiments"].items()
              if row["status"] not in OK_STATUSES]
    failed += payload.get("multi", {}).get("failures", [])
    if failed:
        print(f"failed jobs: {', '.join(sorted(failed))}", file=sys.stderr)
    return 1 if failed else 0


def _finish_campaign(payload, format_summary, verdict) -> int:
    """Print a campaign's summary, report path and verdict messages
    (to stderr); return the verdict's exit code."""
    print(format_summary(payload))
    print(f"report written to {payload['report_path']}")
    judged = verdict(payload)
    for message in judged.messages:
        print(message, file=sys.stderr)
    return exit_code(judged)


def cmd_faults(args) -> int:
    from repro.faults import campaign, multi

    if args.multi_nodes:
        payload = multi.run_multi_campaign(seeds=args.seeds,
                                           nodes=args.multi_nodes,
                                           workers=args.workers,
                                           quick=args.quick,
                                           parallel=not args.serial,
                                           output=args.output)
        return _finish_campaign(payload, multi.format_summary,
                                campaign.verdict)
    payload = campaign.run_campaign(seeds=args.seeds,
                                    workers=args.workers,
                                    quick=args.quick,
                                    parallel=not args.serial,
                                    chaos_rate=args.chaos,
                                    chaos_seed=args.chaos_seed,
                                    output=args.output)
    return _finish_campaign(payload, campaign.format_summary,
                            campaign.verdict)


def cmd_fuzz(args) -> int:
    from repro.fuzz.campaign import format_summary, run_campaign, verdict

    modes = args.modes.split(",") if args.modes else ("isa", "lang", "os")
    payload = run_campaign(seeds=args.seeds,
                           modes=tuple(modes),
                           quick=args.quick,
                           workers=args.workers,
                           parallel=not args.serial,
                           max_seconds=args.max_seconds,
                           chaos_rate=args.chaos,
                           chaos_seed=args.chaos_seed,
                           mutation=args.mutate,
                           output=args.output,
                           corpus_dir=args.corpus_dir,
                           write_corpus=not args.no_corpus)
    return _finish_campaign(payload, format_summary, verdict)


def cmd_checkpoint(args) -> int:
    from repro.checkpoint.campaign import (format_summary, run_campaign,
                                           verdict)

    payload = run_campaign(fuzz_seeds=args.fuzz_seeds,
                           workers=args.workers,
                           parallel=not args.serial,
                           quick=args.quick,
                           output=args.output)
    return _finish_campaign(payload, format_summary, verdict)


def cmd_devices(args) -> int:
    from repro.harness.devices import (format_summary, run_devices_gate,
                                       verdict)

    payload = run_devices_gate(quick=args.quick, output=args.output)
    return _finish_campaign(payload, format_summary, verdict)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="MIPS-X reproduction command line")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--stats", action="store_true",
                       help="print pipeline statistics")
        p.add_argument("--ideal", action="store_true",
                       help="perfect-memory machine (pipeline only)")
        p.add_argument("--trace", type=int, default=0, metavar="N",
                       help="pipeline diagram of the first N cycles")
        p.add_argument("--max-cycles", type=int, default=10_000_000)
        p.add_argument("--jit", action="store_true",
                       help="enable the translated fast path (cycle-exact; "
                            "off by default)")
        p.add_argument("--jit-trace", default=None, metavar="PATH",
                       help="with --jit: write translated-block activation "
                            "spans as Perfetto trace JSON")
        p.add_argument("--devices", action="store_true",
                       help="feed the canonical UART boot stimulus and "
                            "print the UART boot log + device counters "
                            "after the run (see docs/SOFTWARE.md)")
        p.add_argument("--checkpoint-every", type=int, default=0,
                       metavar="K",
                       help="snapshot the machine every K cycles into "
                            ".trace_cache/checkpoints/ (0 = off)")
        p.add_argument("--resume", action="store_true",
                       help="resume from the latest valid snapshot of "
                            "--checkpoint-id before running")
        p.add_argument("--checkpoint-id", default=None, metavar="ID",
                       help="snapshot ladder name (default: cli)")

    def campaign(p, report, finding, runner=True, chaos=False):
        p.epilog = (f"Exit codes: 0 = clean, 1 = a campaign job failed in "
                    f"the harness (infrastructure, not a finding), 2 = "
                    f"{finding}; 2 wins over 1.")
        p.add_argument("--output", default=None, metavar="PATH",
                       help=f"report file (default: {report} at the repo "
                            "root)")
        if runner:
            p.add_argument("--workers", type=int, default=None,
                           help="parallel worker processes (default: CPUs)")
            p.add_argument("--serial", action="store_true",
                           help="run campaign jobs in-process")
        if chaos:
            p.add_argument("--chaos", type=float, default=0.0,
                           metavar="RATE",
                           help="kill this fraction of first-attempt "
                                "workers mid-job (chaos test of the runner)")
            p.add_argument("--chaos-seed", type=int, default=0,
                           help="seed for the chaos kill selection")

    p_run = sub.add_parser("run", help="assemble and run a .s file")
    p_run.add_argument("file")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_compile = sub.add_parser("compile",
                               help="compile and run an SPL source file")
    p_compile.add_argument("file")
    p_compile.add_argument("--emit-asm", action="store_true",
                           help="print the naive assembly and exit")
    p_compile.add_argument("--listing", action="store_true",
                           help="print the reorganized listing and exit")
    common(p_compile)
    p_compile.set_defaults(func=cmd_compile)

    p_disasm = sub.add_parser("disasm", help="assemble and list a .s file")
    p_disasm.add_argument("file")
    p_disasm.set_defaults(func=cmd_disasm)

    p_workload = sub.add_parser("workload", help="run a registered workload")
    p_workload.add_argument("name")
    common(p_workload)
    p_workload.set_defaults(func=cmd_workload)

    p_trace = sub.add_parser(
        "trace",
        help="run under the cycle tracer and export Perfetto trace JSON",
        description="Run a registered workload (or a .s/.spl file) under "
                    "the telemetry cycle tracer and write a Chrome/"
                    "Perfetto trace_event JSON of instruction lifecycles "
                    "per pipestage, stall spans, and squash/exception "
                    "events.  Open the output in ui.perfetto.dev; see "
                    "docs/OBSERVABILITY.md for a reading guide.")
    p_trace.add_argument("target",
                         help="workload name, or path to a .s/.spl file")
    p_trace.add_argument("--output", default="TRACE_pipeline.json",
                         metavar="PATH",
                         help="trace file (default: TRACE_pipeline.json)")
    p_trace.add_argument("--metrics-output", default=None, metavar="PATH",
                         help="also write the metrics snapshot JSON here")
    p_trace.add_argument("--capacity", type=int, default=65536,
                         help="ring-buffer capacity: keep the last N "
                              "instruction records (default 65536)")
    p_trace.add_argument("--ideal", action="store_true",
                         help="perfect-memory machine (pipeline only)")
    p_trace.add_argument("--stats", action="store_true",
                         help="print pipeline statistics")
    p_trace.add_argument("--nodes", type=int, default=0, metavar="N",
                         help="run a parallel workload on an N-node "
                              "multiprocessor: one Perfetto process per "
                              "node (target must be psieve/pintmm/pring)")
    p_trace.add_argument("--bus-latency", type=int, default=0, metavar="L",
                         help="extra global cycles the shared bus stays "
                              "held after each acquisition (with --nodes)")
    p_trace.add_argument("--max-cycles", type=int, default=10_000_000)
    p_trace.set_defaults(func=cmd_trace)

    p_bench = sub.add_parser(
        "bench", help="benchmark telemetry: the experiment grid through "
                      "the parallel Runner plus the jit section, written "
                      "to BENCH_pipeline.json")
    p_bench.add_argument("--quick", action="store_true",
                         help="reduced grid and shorter traces (CI smoke)")
    p_bench.add_argument("--workers", type=int, default=None,
                         help="parallel worker processes (default: CPUs)")
    p_bench.add_argument("--timeout", type=float, default=None,
                         help="per-job timeout in seconds")
    p_bench.add_argument("--output", default=None, metavar="PATH",
                         help="telemetry file (default: BENCH_pipeline.json "
                              "at the repo root)")
    p_bench.add_argument("--metrics-output", default=None, metavar="PATH",
                         help="aggregated metrics file (default: "
                              "METRICS_summary.json at the repo root)")
    p_bench.add_argument("--multi", action="store_true",
                         help="also run the multiprocessor scaling sweep "
                              "(nodes x bus latency x invalidation) and "
                              "write it as the payload's 'multi' section")
    p_bench.add_argument("--multi-nodes", default=None, metavar="N[,N]",
                         help="comma-separated node counts for the multi "
                              "sweep (default 1..10; implies --multi)")
    p_bench.add_argument("--multi-only", action="store_true",
                         help="run only the multi sweep: skip the "
                              "uniprocessor grid and the jit section")
    p_bench.set_defaults(func=cmd_bench)

    p_faults = sub.add_parser(
        "faults",
        help="seeded fault-injection campaign: differential invariant "
             "checking across the parallel runner, written to "
             "FAULTS_campaign.json",
        description="Inject seeded hardware-fault plans into pipeline "
                    "runs and check architectural invariants against a "
                    "clean differential run.")
    p_faults.add_argument("--seeds", type=int, default=32,
                          help="number of seeded fault plans (default 32)")
    p_faults.add_argument("--quick", action="store_true",
                          help="fewer events per plan (CI smoke)")
    p_faults.add_argument("--multi-nodes", type=int, default=0, metavar="N",
                          help="run the node-level multiprocessor campaign "
                               "on N-node systems instead (flip one node's "
                               "Icache valid bits / corrupt its Ecache "
                               "tags mid-run; report: FAULTS_multi.json)")
    campaign(p_faults, "FAULTS_campaign.json",
             "classified invariant violation", chaos=True)
    p_faults.set_defaults(func=cmd_faults)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing campaign: cross-check golden, pipeline "
             "and trace-replay models on seeded generated programs, "
             "written to FUZZ_campaign.json",
        description="Generate seeded random programs (ISA instruction "
                    "sequences, SPL sources, and OS-mode trap/interrupt "
                    "programs), run each on the golden simulator (naive "
                    "code) and the pipeline (reorganized code), replay "
                    "the captured cache streams through the trace "
                    "models, and compare everything observable; os-mode "
                    "programs instead cross-check the interpreter, the "
                    "JIT, and a checkpoint/restore run cycle-exactly.  "
                    "Divergent programs are auto-shrunk to a minimal repro "
                    "and filed under fuzz_corpus/.  Campaigns journal "
                    "every finished seed and resume from the journal when "
                    "rerun.")
    p_fuzz.add_argument("--seeds", type=int, default=50,
                        help="seeds per mode (default 50)")
    p_fuzz.add_argument("--modes", default=None, metavar="M[,M]",
                        help="comma-separated modes: isa, lang, os "
                             "(default all three)")
    p_fuzz.add_argument("--quick", action="store_true",
                        help="smaller generated programs (CI smoke)")
    p_fuzz.add_argument("--max-seconds", type=float, default=None,
                        help="wall-clock budget; finished seeds are "
                             "journaled, rerun the same command to resume")
    p_fuzz.add_argument("--mutate", default=None, metavar="NAME",
                        help="dev-only: plant a known golden-model bug "
                             "(see repro.fuzz.mutation); divergences are "
                             "then expected and do not fail the campaign")
    p_fuzz.add_argument("--corpus-dir", default=None, metavar="DIR",
                        help="where to file shrunk repros (default: "
                             "fuzz_corpus/ at the repo root)")
    p_fuzz.add_argument("--no-corpus", action="store_true",
                        help="do not file repros for divergences")
    campaign(p_fuzz, "FUZZ_campaign.json",
             "unexplained model divergence", chaos=True)
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_ckpt = sub.add_parser(
        "checkpoint",
        help="checkpoint/restore recovery gates: restore equivalence, "
             "chaos resume, snapshot corruption; written to "
             "CHECKPOINT_campaign.json",
        description="Run the standing crash-recovery gates: snapshot "
                    "mid-run + restore + finish must be bit-identical to "
                    "an uninterrupted run (workloads, a 4-node "
                    "multiprocessor, and fuzz seeds; JIT off and on); "
                    "SIGKILLed checkpointed workers must resume from "
                    "their last snapshot and merge byte-identical; "
                    "corrupted/truncated/mis-versioned snapshots must be "
                    "rejected with named errors and fall back a "
                    "generation.")
    p_ckpt.add_argument("--fuzz-seeds", type=int, default=50,
                        help="fuzz seeds in the equivalence gate "
                             "(default 50)")
    p_ckpt.add_argument("--quick", action="store_true",
                        help="few fuzz seeds (CI smoke)")
    campaign(p_ckpt, "CHECKPOINT_campaign.json",
             "a recovery gate failed")
    p_ckpt.set_defaults(func=cmd_checkpoint)

    p_devices = sub.add_parser(
        "devices",
        help="software-stack gate: boot every kernel-lite demo "
             "interpretive, under the JIT, and across checkpoint/"
             "restore; written to DEVICES_results.json",
        description="Boot each kernel-lite demo (see docs/SOFTWARE.md) "
                    "three ways and compare: the UART boot log must "
                    "match its pinned golden log with interrupts "
                    "delivered, the JIT run must be bit-exact (log, "
                    "cycles, instructions) with blocks compiled, and a "
                    "mid-boot snapshot/restore must finish "
                    "bit-identical to the straight run.")
    p_devices.add_argument("--quick", action="store_true",
                           help="skip the long timer-sliced demo "
                                "(CI smoke)")
    campaign(p_devices, "DEVICES_results.json", "a demo failed its gate",
             runner=False)
    p_devices.set_defaults(func=cmd_devices)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
