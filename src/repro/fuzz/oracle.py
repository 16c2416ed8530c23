"""The differential oracle: run one generated program on independent
models of MIPS-X semantics and compare everything observable.

Four model pairs, matching the repo's redundancy axes:

* **golden-vs-pipeline** (the reorganizer contract): the *naive* program
  runs on the instruction-level golden simulator; the *reorganized*
  program runs on the cycle-accurate pipeline.  Full architectural state
  is compared -- registers (minus the generator's declared code-address
  registers), the MD register, the bounded data region, and the console
  stream.  A reorganizer crash (:class:`ReorgError`) or a pipeline
  hazard trap (:class:`HazardViolation`) is itself a divergence: the
  reorganizer emitted hazardous code.
* **live-vs-replay** (the capture-once/replay-many contract): the same
  pipeline run is captured with a :class:`TraceCollector`, and the
  recorded fetch/ecache streams are replayed through the vectorized
  trace models, which must reproduce the live cache statistics exactly.
* **jit-vs-interpreter** (the translated-fast-path contract): the
  reorganized program runs again with the block translator enabled at a
  low threshold, and the two machine signatures must match bit-for-bit
  -- every pipeline counter (cycles included: the fast path is
  cycle-exact, not just architecturally equivalent), registers, MD/PSW,
  memory, console, devices and cache statistics.
* **checkpoint-vs-straight** (the snapshot/restore contract): the
  reorganized program is restored from a snapshot cut at a seeded
  random cycle, and its signature must match the uninterrupted run's.

The signature and the mid-run restore of the last two pairs are those of
:mod:`repro.checkpoint.equivalence`, shared with the checkpoint campaign
and the devices gate.

Every check returns ``None`` for agreement or a structured
:class:`DivergenceReport`; programs that fail to terminate or assemble
raise, and the campaign layer records those as harness failures, not
divergences.

``golden_mutator`` is a **dev-only hook**: tests (and nothing else) use
it to plant a known semantic bug in the golden model and assert the
fuzzer catches and shrinks it (see :mod:`repro.fuzz.mutation`).
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, Dict, List, Optional, Tuple

from repro.asm.assembler import parse as parse_asm
from repro.asm.unit import Program
from repro.checkpoint.equivalence import mismatches, restore_midrun, signature
from repro.checkpoint.state import (CheckpointError, SnapshotConfigError,
                                    SnapshotFormatError)
from repro.core import Machine, MachineConfig
from repro.core.golden import GoldenError, GoldenSimulator
from repro.core.pipeline import HazardViolation
from repro.ecache import trace_sim as ecache_sim
from repro.fuzz.gen import GeneratedProgram
from repro.icache import trace_sim as icache_sim
from repro.reorg import ReorgError, reorganize
from repro.traces.capture import TraceCollector

#: model pair names used in reports and corpus metadata
PAIR_GOLDEN_PIPELINE = "golden-vs-pipeline"
PAIR_LIVE_REPLAY = "live-vs-replay"
PAIR_JIT_INTERP = "jit-vs-interpreter"
PAIR_CHECKPOINT = "checkpoint-vs-straight"
#: os mode's interpretive reference run itself misbehaved (hazard trap)
PAIR_OS_REFERENCE = "os-reference"


@dataclasses.dataclass
class DivergenceReport:
    """One observed disagreement between two models."""

    pair: str                    #: PAIR_GOLDEN_PIPELINE | PAIR_LIVE_REPLAY
    kind: str                    #: "state" | "reorg-error" | "hazard" | ...
    mismatches: List[Dict[str, object]]

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    def summary(self, limit: int = 4) -> str:
        parts = [f"{self.pair} [{self.kind}]"]
        for mismatch in self.mismatches[:limit]:
            parts.append(str(mismatch.get("detail", mismatch)))
        if len(self.mismatches) > limit:
            parts.append(f"... {len(self.mismatches) - limit} more")
        return "; ".join(parts)


class FuzzProgramError(RuntimeError):
    """The generated program is unusable (did not assemble/terminate).

    This is a *generator or harness* bug, not a model divergence; the
    campaign records it under the harness taxonomy (exit 1), never as a
    finding (exit 2).
    """


def _report(pair: str, kind: str, what: str,
            detail: str) -> DivergenceReport:
    """A report with a single mismatch."""
    return DivergenceReport(pair=pair, kind=kind,
                            mismatches=[{"what": what, "detail": detail}])


# ------------------------------------------------------------- model runs
def programs_for(generated: GeneratedProgram
                 ) -> Tuple[Optional[Program], Program]:
    """(naive program, reorganized program) for one generated test.

    os mode has no naive half (the golden model has no exception
    support, so nothing ever runs un-reorganized): the slot is ``None``
    and the reorganized program is the hand-scheduled harness unit --
    which must stay out of the reorganizer, its delay slots and trap
    ABI are pinned by hand -- concatenated with the *reorganized*
    random body, vector at address 0.
    """
    if generated.mode == "lang":
        from repro.lang import compile_spl

        compilation = compile_spl(generated.source, scheme=None)
        naive = compilation.naive_program()
        reorganized = reorganize(parse_asm(compilation.asm_text)).unit.assemble()
        return naive, reorganized
    if generated.mode == "os":
        unit = parse_asm(generated.harness)
        unit.extend(reorganize(parse_asm(generated.source)).unit)
        return None, unit.assemble(entry="_start")
    naive = parse_asm(generated.source).assemble()
    reorganized = reorganize(parse_asm(generated.source)).unit.assemble()
    return naive, reorganized


def _build(generated: GeneratedProgram):
    """:func:`programs_for` under the oracle's taxonomy: ``(programs,
    None)``, or ``(None, report)`` when the reorganizer rejects its own
    output; a program that does not build raises
    :class:`FuzzProgramError`."""
    try:
        return programs_for(generated), None
    except ReorgError as exc:
        return None, _report(PAIR_GOLDEN_PIPELINE, "reorg-error",
                             "reorganizer", f"reorganizer rejected its own "
                                            f"output: {exc}")
    except (ValueError, KeyError) as exc:
        raise FuzzProgramError(
            f"generated program did not build (seed {generated.seed}): "
            f"{exc}") from exc


def run_golden(program: Program, generated: GeneratedProgram,
               mutator: Optional[Callable[[GoldenSimulator], None]] = None,
               ) -> GoldenSimulator:
    sim = GoldenSimulator()
    if mutator is not None:
        mutator(sim)
    sim.load_program(program)
    try:
        sim.run(generated.max_instructions)
    except GoldenError as exc:
        raise FuzzProgramError(
            f"golden run failed (seed {generated.seed}): {exc}") from exc
    return sim


def _loaded(program: Program, generated: GeneratedProgram,
            config: Optional[MachineConfig] = None,
            collector: Optional[TraceCollector] = None) -> Machine:
    """A machine with ``program`` loaded and the UART feed scheduled."""
    machine = Machine(config or MachineConfig())
    if collector is not None:
        machine.set_trace(collector)
    machine.load_program(program)
    if generated.uart_feed is not None:
        text, start, interval = generated.uart_feed
        machine.memory.uart.feed(text, start=start, interval=interval)
    return machine


def run_pipeline(program: Program, generated: GeneratedProgram,
                 config: Optional[MachineConfig] = None,
                 collector: Optional[TraceCollector] = None) -> Machine:
    machine = _loaded(program, generated, config, collector)
    machine.run(generated.max_cycles)
    if not machine.halted:
        raise FuzzProgramError(
            f"pipeline run did not halt within {generated.max_cycles} "
            f"cycles (seed {generated.seed})")
    return machine


# ------------------------------------------------------------ comparisons
def _compare_state(golden: GoldenSimulator, machine: Machine,
                   generated: GeneratedProgram) -> List[Dict[str, object]]:
    excluded = set(generated.excluded_regs)
    words = [(f"r{register}", golden.regs[register], machine.regs[register])
             for register in range(1, 32) if register not in excluded]
    words.append(("md", golden.md.value, machine.pipeline.md.value))
    for address in range(generated.data_base,
                         generated.data_base + generated.data_words):
        words.append((f"mem[{address:#x}]",
                      golden.memory.system.read(address),
                      machine.memory.system.read(address)))
    found: List[Dict[str, object]] = [
        {"what": what, "detail": f"{what}: golden {want:#x}, "
                                 f"pipeline {got:#x}"}
        for what, want, got in words if want != got]
    if (golden.console.values != machine.console.values
            or golden.console.text != machine.console.text):
        found.append({
            "what": "console",
            "detail": f"console: golden {golden.console.values!r}/"
                      f"{golden.console.text!r}, pipeline "
                      f"{machine.console.values!r}/"
                      f"{machine.console.text!r}"})
    return found


def _golden_pair(generated: GeneratedProgram, naive: Program,
                 reorganized: Program, config: Optional[MachineConfig],
                 mutator: Optional[Callable[[GoldenSimulator], None]],
                 collector: Optional[TraceCollector],
                 ) -> Tuple[Optional[Machine], Optional[DivergenceReport]]:
    """Golden-vs-pipeline over built programs: ``(pipeline machine,
    report or None)``; the machine is ``None`` after a hazard trap."""
    golden = run_golden(naive, generated, mutator=mutator)
    try:
        machine = run_pipeline(reorganized, generated, config=config,
                               collector=collector)
    except HazardViolation as exc:
        return None, _report(PAIR_GOLDEN_PIPELINE, "hazard", "pipeline",
                             f"reorganized code tripped the hazard "
                             f"checker: {exc}")
    found = _compare_state(golden, machine, generated)
    return machine, (DivergenceReport(pair=PAIR_GOLDEN_PIPELINE, kind="state",
                                      mismatches=found) if found else None)


def check_program(generated: GeneratedProgram,
                  config: Optional[MachineConfig] = None,
                  golden_mutator: Optional[
                      Callable[[GoldenSimulator], None]] = None,
                  collector: Optional[TraceCollector] = None,
                  ) -> Optional[DivergenceReport]:
    """Golden-vs-pipeline oracle; ``None`` means the models agree.

    ``collector`` optionally captures the pipeline run's event streams
    so :func:`check_trace_replay` can reuse the same execution.

    os-mode programs have no golden half (the instruction-level model
    has no exception support), so this check is vacuously ``None`` for
    them; :func:`check_all` runs the pairs that do apply.
    """
    if generated.mode == "os":
        return None
    programs, report = _build(generated)
    if report is not None:
        return report
    return _golden_pair(generated, *programs, config, golden_mutator,
                        collector)[1]


def _icache_signature(stats) -> Tuple[int, ...]:
    return (stats.accesses, stats.hits, stats.misses,
            stats.words_filled, stats.tag_allocations)


def check_trace_replay(machine: Machine, collector: TraceCollector,
                       ) -> Optional[DivergenceReport]:
    """Live-vs-replay oracle over one captured pipeline run."""
    found: List[Dict[str, object]] = []
    if machine.config.icache.enabled:
        replayed = icache_sim.replay(machine.config.icache,
                                     collector.fetch_array())
        live = _icache_signature(machine.icache.stats)
        traced = _icache_signature(replayed)
        if live != traced:
            found.append({
                "what": "icache",
                "detail": f"icache replay diverged: live "
                          f"acc/hit/miss/fill/tag {live}, replay {traced}"})
    if machine.config.ecache.enabled:
        kinds, addresses = collector.ecache_arrays()
        replayed_stats, _ = ecache_sim.replay(machine.config.ecache,
                                              kinds, addresses)
        if replayed_stats != machine.ecache.stats:
            found.append({
                "what": "ecache",
                "detail": f"ecache replay diverged: live "
                          f"{machine.ecache.stats}, replay "
                          f"{replayed_stats}"})
    return (DivergenceReport(pair=PAIR_LIVE_REPLAY, kind="stats",
                             mismatches=found) if found else None)


def _signature_report(pair: str, reference: Machine, machine: Machine,
                      where: str, left: str,
                      right: str) -> Optional[DivergenceReport]:
    """A ``state`` report naming every differing signature key, or
    ``None`` when the two finished machines are bit-identical."""
    want, got = signature(reference), signature(machine)
    keys = mismatches(want, got)
    if not keys:
        return None
    return DivergenceReport(pair=pair, kind="state", mismatches=[
        {"what": key,
         "detail": f"{key}{where}: {left} {want[key]!r} != {right} "
                   f"{got[key]!r}"}
        for key in keys])


def _jit_config(config: Optional[MachineConfig]) -> Optional[MachineConfig]:
    """``config`` with the translator on at threshold 2 (so even short
    fuzz programs get hot enough to translate), or ``None`` when the
    translator does not support it."""
    from repro.core.translate import Translator

    base = config or MachineConfig()
    if not Translator.supports(base):
        return None
    return dataclasses.replace(base, jit=True, jit_threshold=2)


def check_jit_equivalence(program: Program, generated: GeneratedProgram,
                          reference: Machine,
                          config: Optional[MachineConfig] = None,
                          ) -> Optional[DivergenceReport]:
    """Jit-vs-interpreter oracle; ``None`` means bit-identical.

    ``reference`` is an already-completed interpretive run of
    ``program``.  The same program runs again with the translator
    enabled at threshold 2, and the machine signatures must match.
    """
    jit_config = _jit_config(config)
    if jit_config is None:
        return None
    try:
        jit_machine = run_pipeline(program, generated, config=jit_config)
    except HazardViolation as exc:
        return _report(PAIR_JIT_INTERP, "hazard", "pipeline",
                       f"jit run tripped the hazard checker where the "
                       f"interpreter did not: {exc}")
    return _signature_report(PAIR_JIT_INTERP, reference, jit_machine, "",
                             "interpreter", "jit")


def check_checkpoint_equivalence(program: Program,
                                 generated: GeneratedProgram,
                                 reference: Machine,
                                 config: Optional[MachineConfig] = None,
                                 jit: bool = False,
                                 ) -> Optional[DivergenceReport]:
    """Checkpoint-vs-straight oracle; ``None`` means bit-identical.

    The program runs again through
    :func:`~repro.checkpoint.equivalence.restore_midrun`, cut at a
    seeded random cycle, and the restored run's machine signature must
    match the uninterrupted ``reference`` run bit-for-bit.

    ``jit=True`` exercises the same contract with the block translator
    enabled (translated blocks must be invalidated on restore, never
    resumed stale).
    """
    base = _jit_config(config) if jit else config or MachineConfig()
    if base is None:
        return None
    cut = random.Random(generated.seed ^ 0xC0FFEE).randint(
        1, max(1, reference.stats.cycles - 1))
    try:
        restored, _state = restore_midrun(_loaded(program, generated, base),
                                          cut, generated.max_cycles)
    except (SnapshotFormatError, SnapshotConfigError) as exc:
        return _report(PAIR_CHECKPOINT, "restore-error", "restore",
                       f"restore rejected its own snapshot "
                       f"(seed {generated.seed}): {exc}")
    except CheckpointError as exc:
        return _report(PAIR_CHECKPOINT, "quiescence", "drain",
                       f"drain to quiescence failed at cycle {cut} "
                       f"(seed {generated.seed}): {exc}")
    if not restored.halted:
        return _report(PAIR_CHECKPOINT, "no-halt", "pipeline",
                       f"restored run did not halt within "
                       f"{generated.max_cycles} cycles where the straight "
                       f"run did (seed {generated.seed})")
    return _signature_report(PAIR_CHECKPOINT, reference, restored,
                             f" (snapshot at cycle {cut})", "straight",
                             "restored")


def check_all(generated: GeneratedProgram,
              config: Optional[MachineConfig] = None,
              golden_mutator: Optional[
                  Callable[[GoldenSimulator], None]] = None,
              ) -> List[DivergenceReport]:
    """Run all applicable oracles on one generated program.

    isa/lang: one interpretive pipeline execution serves the first two
    pairs -- it is compared against the golden run *and* captured for
    the trace-replay comparison -- then becomes the bit-exact reference
    for a second execution with the block translator enabled
    (:func:`check_jit_equivalence`) and for the checkpoint round trip.

    os: the golden model has no exception support and the trace replay
    has no collector hooks for device events, so only the two
    cycle-exact whole-machine pairs run -- jit-vs-interpreter and
    checkpoint-vs-straight, both of which are sensitive to
    interrupt-arrival timing and UART RX schedules.
    """
    programs, report = _build(generated)
    if report is not None:
        return [report]
    naive, reorganized = programs
    reports: List[Optional[DivergenceReport]] = []
    if generated.mode == "os":
        try:
            machine = run_pipeline(reorganized, generated, config=config)
        except HazardViolation as exc:
            return [_report(PAIR_OS_REFERENCE, "hazard", "pipeline",
                            f"os-mode reference run tripped the hazard "
                            f"checker: {exc}")]
    else:
        collector = TraceCollector(fetches=True, data=False, branches=False,
                                   ecache=True)
        machine, report = _golden_pair(generated, naive, reorganized, config,
                                       golden_mutator, collector)
        if machine is None:
            return [report]
        reports += [report, check_trace_replay(machine, collector)]
    reports += [
        check_jit_equivalence(reorganized, generated, machine, config=config),
        check_checkpoint_equivalence(reorganized, generated, machine,
                                     config=config),
    ]
    return [report for report in reports if report is not None]
