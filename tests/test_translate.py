"""The translated fast path must be invisible: cycle-exact, bit-identical.

``MachineConfig.jit`` compiles hot basic blocks into specialized Python
closures (:mod:`repro.core.translate`).  The contract these tests pin is
total equivalence with the interpretive pipeline -- every architectural
register, every memory word, every pipeline/cache counter, *including
the cycle count* -- for the one block shape in each of its forms (a
path that closes on its entry, directly or through a seam, and a
one-pass path) and across every way a block can stop being valid:
self-modifying stores, squashing branches at the block boundary,
exceptions, and LRU eviction.  Coverage floors pin what the closing
form buys: whole loops repeat inside one closure activation.

The full-state signature compared here is the same one the fuzz
campaign's jit-vs-interpreter oracle uses
(:func:`repro.fuzz.oracle.check_jit_equivalence`).
"""

import dataclasses

import pytest

from repro.asm import assemble
from repro.core import Machine, MachineConfig, PswBit, perfect_memory_config
from repro.core import translate
from repro.fuzz.gen import generate_program
from repro.checkpoint import signature
from repro.fuzz.oracle import (check_all, check_jit_equivalence, programs_for,
                               run_pipeline)
from repro.isa import encode
from tests.test_decode_memo import random_loop_program


def run(program, **config_overrides) -> Machine:
    machine = Machine(MachineConfig(**config_overrides))
    machine.load_program(program)
    machine.run()
    assert machine.halted
    return machine


def assert_bit_identical(program, **jit_overrides):
    """Run interpretive and jit machines; full signatures must match."""
    reference = run(program)
    jit = run(program, jit=True, **jit_overrides)
    assert signature(reference) == signature(jit)
    return reference, jit


# --------------------------------------------------------------- workloads
#: translated-cycle coverage (translated cycles / all cycles) of the
#: suite programs under ``jit=True``, measured and rounded down
COVERAGE_FLOORS = {"sieve": 0.99, "bubble": 0.95, "queens": 0.33,
                   "intmm": 0.24, "quick": 0.53, "listops": 0.24,
                   "perm": 0.03, "towers": 0.0}


class TestWorkloadEquivalence:
    def test_sieve_bit_identical(self):
        from repro.workloads import cached_program

        reference, jit = assert_bit_identical(cached_program("sieve"))
        stats = jit.pipeline._translator.stats
        assert stats.compiled > 0 and stats.entries > 0
        # the headline claim: most cycles run translated
        assert stats.cycles / reference.stats.cycles > 0.9
        # loops repeat inside the closure: a closing path runs pass after
        # pass along its back edge (one pass per entry reads about 9)
        assert stats.cycles / stats.entries >= 30

    @pytest.mark.slow
    @pytest.mark.parametrize("name", ["bubble", "intmm", "quick", "perm",
                                      "towers"])
    def test_workload_bit_identical(self, name):
        from repro.workloads import cached_program

        assert_bit_identical(cached_program(name))

    @pytest.mark.slow
    @pytest.mark.parametrize("name", sorted(COVERAGE_FLOORS))
    def test_coverage_floor(self, name):
        from repro.workloads import cached_program

        machine = run(cached_program(name), jit=True)
        translated = machine.pipeline._translator.stats.cycles
        assert translated / machine.stats.cycles >= COVERAGE_FLOORS[name]

    @pytest.mark.parametrize("seed", [0, 1, 0xC0FFEE])
    def test_random_loops_bit_identical(self, seed):
        program = assemble(random_loop_program(seed, iterations=12))
        _, jit = assert_bit_identical(program, jit_threshold=2)
        assert jit.pipeline._translator.stats.entries > 0


# ------------------------------------------------------------ seam paths
SEAM_LOOP = """
_start:
    li s0, 40
    li s1, 1
    li t0, 0
loop:
    sub s0, s0, s1
    bne s0, r0, mid
    nop
    nop
    add t0, t0, s1
mid:
    add t0, t0, s0
    xor t1, t0, s0
    bne s0, r0, loop
    nop
    nop
    halt
"""


class TestSeamPath:
    def test_path_through_a_seam_closes_bit_identical(self):
        # "mid" is the hot target: its path runs to the bottom branch,
        # follows it to "loop" as a seam, and closes at the branch back
        # to "mid", so the closure repeats across the seam.
        program = assemble(SEAM_LOOP)
        _, jit = assert_bit_identical(program, jit_threshold=2)
        translator = jit.pipeline._translator
        mid = program.symbols["mid"]
        block = translator.blocks[mid]
        body = block.pcs[4:]
        assert body[0] == mid and min(body) < mid     # crossed the seam
        assert block.pcs[:4] == block.pcs[-4:]        # closes on its entry
        assert translator.stats.cycles / translator.stats.entries > 30


# ----------------------------------------------------- self-modifying code
def _self_modifying_source() -> str:
    # Phase 1 translates the hot loop with "li t3, 11" in its body; the
    # inter-phase store patches that word to "li t3, 44", which must
    # invalidate the block so phase 2 runs (and retranslates) the new
    # code: t5 ends at 20*11 + 20*44.
    patched = encode(assemble("_start: li t3, 44").listing[0])
    return f"""
    _start:
        la t0, target
        la t1, newword
        ld t2, 0(t1)
        nop
        li s1, 1
        li s2, 2
        li t5, 0
    phase:
        li s0, 20
    loop:
    target:
        li t3, 11
        add t5, t5, t3
        sub s0, s0, s1
        bne s0, r0, loop
        nop
        nop
        st t2, 0(t0)
        sub s2, s2, s1
        bne s2, r0, phase
        nop
        nop
        halt
    newword: .word {patched}
    """


class TestSelfModifyingCode:
    def test_store_into_block_invalidates_and_stays_exact(self):
        program = assemble(_self_modifying_source())
        reference, jit = assert_bit_identical(program, jit_threshold=2)
        assert jit.regs[15] == 20 * 11 + 20 * 44        # t5
        translator = jit.pipeline._translator
        assert translator.stats.invalidations >= 1
        assert translator.stats.entries > 0             # it did run hot


# ----------------------------------------------- squashes at the boundary
SQUASHING_LOOP = """
_start:
    li s0, 40
    li s1, 1
    li t0, 0
    li t6, 0
loop:
    and t4, s0, s1
    beqsq t4, r0, skip
    nop
    nop
    add t6, t6, s1
skip:
    add t0, t0, s1
    sub s0, s0, s1
    bne s0, r0, loop
    nop
    nop
    halt
"""


class TestSquashAtBlockBoundary:
    def test_alternating_squashing_branch_bit_identical(self):
        # The inner squashing branch alternates taken/not-taken every
        # pass, so the block's side exit and its wrong-way squash both
        # fire repeatedly while the loop is translated.
        program = assemble(SQUASHING_LOOP)
        reference, jit = assert_bit_identical(program, jit_threshold=2)
        assert reference.stats.branch_squashes > 0
        assert jit.pipeline._translator.stats.entries > 0


# -------------------------------------------------- exceptions in hot code
PSW_SYS_TE = (1 << PswBit.MODE) | (1 << PswBit.SHIFT_EN) | (1 << PswBit.TE)

OVERFLOW_IN_LOOP = f"""
.org 0
    br handler
    nop
    nop

.org 0x40
handler:
    la   s0, trapcount
    ld   s1, 0(s0)
    nop
    addi s1, s1, 1
    st   s1, 0(s0)
    movfrs t0, pswold
    li    t1, {1 << PswBit.TE}
    not   t1, t1
    and   t0, t0, t1
    movtos pswold, t0
    jpc
    jpc
    jpcrs

.org 0x100
_start:
    li   t9, {PSW_SYS_TE}
    movtos psw, t9
    li   t2, 0x7FFFFF00
    li   t7, 0x10
    li   s3, 30
    li   s4, 1
loop:
    add  t2, t2, t7      ; overflows on pass 16 of 30 -> trap
    sub  s3, s3, s4
    bne  s3, r0, loop
    nop
    nop
    halt

trapcount: .word 0
"""


class TestExceptionAtBlockBoundary:
    def test_overflow_trap_mid_hot_loop_bit_identical(self):
        # The loop is hot (and translated) well before pass 16, where
        # the add overflows with TE set: the trap, the PSWold rewrite in
        # the handler, and the three-jump restart must all play out
        # exactly as interpreted.
        program = assemble(OVERFLOW_IN_LOOP)

        def run_cfg(jit):
            machine = Machine(perfect_memory_config(
                jit=jit, jit_threshold=2))
            machine.load_program(program)
            machine.run()
            assert machine.halted
            return machine

        reference, jit = run_cfg(False), run_cfg(True)
        assert signature(reference) == signature(jit)
        trapcount = program.symbols["trapcount"]
        assert reference.memory.system.read(trapcount) == 1
        assert reference.stats.exceptions == 1


# -------------------------------------------------------- admission bounds
THREE_LOOPS = """
_start:
    li s1, 1
    li t0, 0
    li s0, 20
l1: add t0, t0, s1
    sub s0, s0, s1
    bne s0, r0, l1
    nop
    nop
    li s0, 20
l2: add t0, t0, s1
    add t1, t0, t0
    sub s0, s0, s1
    bne s0, r0, l2
    nop
    nop
    li s0, 20
l3: add t0, t0, s1
    sub t1, t0, s1
    sub s0, s0, s1
    bne s0, r0, l3
    nop
    nop
    halt
"""


class TestAdmissionBounds:
    def test_block_cache_is_bounded_and_evicts_lru(self, monkeypatch):
        monkeypatch.setattr(translate, "MAX_BLOCKS", 2)
        program = assemble(THREE_LOOPS)
        reference, jit = assert_bit_identical(program, jit_threshold=2)
        translator = jit.pipeline._translator
        stats = translator.stats
        assert len(translator.blocks) <= 2
        assert stats.evictions >= 1
        # conservation: every compiled block is live, evicted, or killed
        assert (len(translator.blocks)
                == stats.compiled - stats.evictions - stats.invalidations)

    def test_unbounded_run_keeps_every_block(self):
        program = assemble(THREE_LOOPS)
        _, jit = assert_bit_identical(program, jit_threshold=2)
        assert jit.pipeline._translator.stats.evictions == 0


# ------------------------------------------------------- telemetry surface
class TestTranslateTelemetry:
    def test_jit_counters_in_snapshot(self):
        from repro.workloads import cached_program

        machine = run(cached_program("sieve"), jit=True)
        snap = machine.metrics().snapshot()
        assert snap["core.translate.blocks.compiled"] > 0
        assert snap["core.translate.entries.taken"] > 0
        assert 0 < snap["core.translate.cycles"] <= snap["pipeline.cycles"]

    def test_interpretive_run_reports_zeros(self):
        program = assemble(random_loop_program(0))
        snap = run(program).metrics().snapshot()
        assert snap["core.translate.blocks.compiled"] == 0
        assert snap["core.translate.entries.taken"] == 0

    def test_jit_trace_export_validates(self, tmp_path):
        import json

        from repro.telemetry import validate_trace_events, write_jit_trace

        program = assemble(random_loop_program(1, iterations=12))
        machine = Machine(MachineConfig(jit=True, jit_threshold=2))
        machine.pipeline._translator.record_spans = True
        machine.load_program(program)
        machine.run()
        spans = machine.pipeline._translator.spans
        assert spans, "no translated-block activations recorded"
        path = tmp_path / "jit_trace.json"
        payload = write_jit_trace(path, spans)
        assert validate_trace_events(payload) == []
        assert json.loads(path.read_text()) == payload
        slices = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == len(spans)


# ------------------------------------------------------------ fuzz replays
class TestFuzzAgreement:
    def test_corpus_replays_bit_identical_under_jit(self):
        from repro.fuzz.corpus import iter_corpus

        entries = [e for e in iter_corpus() if not e.mutation]
        assert entries, "fuzz_corpus/ has no unmutated entries"
        for entry in entries:
            _, reorganized = programs_for(entry.generated)
            reference = run_pipeline(reorganized, entry.generated)
            report = check_jit_equivalence(reorganized, entry.generated,
                                           reference)
            assert report is None, f"{entry.name}: {report.summary()}"

    @pytest.mark.parametrize("seed", range(12))
    def test_generated_programs_bit_identical_under_jit(self, seed):
        generated = generate_program(seed)
        _, reorganized = programs_for(generated)
        reference = run_pipeline(reorganized, generated)
        report = check_jit_equivalence(reorganized, generated, reference)
        assert report is None, report.summary()

    @pytest.mark.slow
    def test_200_seed_differential_campaign(self):
        # All three oracles (golden-vs-pipeline, live-vs-replay,
        # jit-vs-interpreter) over 200 fresh seeds.
        failures = []
        for seed in range(200):
            reports = check_all(generate_program(seed))
            failures.extend(f"seed {seed}: {r.summary()}" for r in reports)
        assert not failures, failures
