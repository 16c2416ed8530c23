"""Translated fast path: hot paths compiled to Python closures.

The interpretive pipeline dispatches every instruction of every cycle
through the full stage machinery.  For the loops that dominate simulated
time this re-derives the same facts -- decode results, bypass routing,
stall-free Icache hits, per-cycle stat increments -- millions of times.
This module is the MIPS-X *reorganizer* philosophy applied to the
simulator itself: move the per-cycle complexity into a one-time software
precomputation and keep the hot path trivial.

**What gets translated.**  One block shape: when a fetch-discontinuity
target gets hot, the scanner walks a *path* of PCs forward from it.
Forward conditional branches on the path are side exits (taken means an
exact mid-pass exit to their target).  The first backward branch ends
the walk, in one of two ways:

* the path *closes*: the branch returns to the entry, either directly
  or after one *seam* -- a backward branch to below the entry that the
  path follows, and that becomes a polarity-inverted side (the pass
  continues when it is taken).  While a closing path repeats, the
  five-stage pipeline is in a perfectly periodic regime -- every fetch
  hits the same Icache lines, every bypass resolves the same way -- so
  the closure replays pass after pass along the back edge, touching
  only architectural state;
* otherwise the path runs *one pass*, ending at that branch plus its
  two delay slots, and redirects wherever the branch decides.  One-pass
  blocks let translated regions *chain*: a loop's fall-through exit
  re-dispatches into a one-pass block whose bottom branch enters the
  next loop.

Every block shares one index space: indices 0..3 are the *prologue*,
the four predecessors already in flight when the entry PC is fetched,
and indices 4.. are the fetched body.  The prologue's PCs, squash
pattern and branch outcomes are the *entry contract*.  A closing path
takes them from its own tail -- the back edge leaves exactly that tail
in the latches, so every back-edge arrival matches -- and a one-pass
path takes the ones observed in the stage latches at compile time.

**Exactness contract.**  Translated execution is cycle-exact and
bit-identical to the interpretive pipeline: identical
:class:`~repro.core.pipeline.PipelineStats`, register file, memory,
MD/PSW, Icache and Ecache statistics and LRU state, and identical
pipeline latches at every entry/exit boundary.  Anything the closure
cannot reproduce exactly is either *refused at compile time* (jumps and
other non-conditional control transfers, coprocessor ops, special-PC
reads, unbypassable load-use hazards), *guarded at entry* (wrong mode,
pending interrupts, trace/fault hooks, squash FSM not quiescent, an
overflow-capable instruction with TE set, latches off the entry
contract, Icache lines not resident) or *bailed out mid-block at a
cycle boundary* (MMIO access, store into a translated region, a side
falling through into words not resident at entry, cycle budget).  On
every exit the closure materializes the exact latch, chain, PC and
statistics state the interpreter would have had, so the interpretive
pipeline resumes seamlessly.

Store invalidation rides the same ``memory.write_listeners`` path that
already invalidates decode memos: the pipeline's store listener feeds
:meth:`Translator.note_store`, which kills any block whose words are
overwritten (self-modifying code) and raises the ``dirty`` flag that
running closures poll after every store cycle.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Tuple

from repro.core.config import MachineConfig
from repro.core.control import SquashState
from repro.isa.opcodes import Funct, Opcode, SpecialReg

_NORMAL = SquashState.NORMAL
_BRANCH_SQUASH = SquashState.BRANCH_SQUASH

#: Longest run of words the block scanner will walk before giving up.
MAX_BLOCK_WORDS = 64

#: Admission bound on the translation cache (LRU-evicted beyond this).
MAX_BLOCKS = 64

#: Compute functs the translator can inline (everything here is a pure
#: register-to-register operation with no control or special-state side
#: effects besides MD, which is modelled).
_INLINE_FUNCTS = frozenset({
    Funct.ADD, Funct.SUB, Funct.AND, Funct.OR, Funct.XOR, Funct.NOT,
    Funct.SLL, Funct.SRL, Funct.SRA, Funct.ROTL,
    Funct.MSTEP, Funct.DSTEP, Funct.MOVFRS,
})

#: Special registers a ``movfrs`` may read inside a block.  PC1..PC3
#: would need the chain maintained per cycle, so they refuse the block.
_INLINE_SPECIALS = frozenset({SpecialReg.PSW, SpecialReg.PSWOLD,
                              SpecialReg.MD})

_BRANCH_EXPR = {
    Opcode.BEQ: ("==", False),
    Opcode.BNE: ("!=", False),
    Opcode.BLT: ("<", True),
    Opcode.BLE: ("<=", True),
    Opcode.BGT: (">", True),
    Opcode.BGE: (">=", True),
}

_MASK = 0xFFFFFFFF
_SIGN = 0x80000000


@dataclasses.dataclass
class TranslateStats:
    """Counters for the translated fast path (``core.translate.*``)."""

    compiled: int = 0        #: blocks successfully translated
    rejected: int = 0        #: hot heads refused by the compiler
    entries: int = 0         #: closure activations (guards all passed)
    entry_rejected: int = 0  #: lookups that hit a block but failed a guard
    cycles: int = 0          #: machine cycles executed by closures
    instructions: int = 0    #: instructions retired by closures
    bails: int = 0           #: mid-block exits (MMIO touch / dirty store)
    side_exits: int = 0      #: mid-block exits via a taken side branch
    invalidations: int = 0   #: blocks killed by stores into their words
    evictions: int = 0       #: blocks evicted by the admission bound

    def as_metrics(self) -> Dict[str, int]:
        """Counter values under canonical telemetry catalog names."""
        return {
            "core.translate.blocks.compiled": self.compiled,
            "core.translate.blocks.rejected": self.rejected,
            "core.translate.blocks.invalidated": self.invalidations,
            "core.translate.blocks.evicted": self.evictions,
            "core.translate.entries.taken": self.entries,
            "core.translate.entries.rejected": self.entry_rejected,
            "core.translate.cycles": self.cycles,
            "core.translate.instructions": self.instructions,
            "core.translate.bails": self.bails,
            "core.translate.side_exits": self.side_exits,
        }


class TranslatedBlock:
    """One compiled path: metadata plus the specialized closure."""

    __slots__ = ("head", "mode", "n", "instrs", "pcs", "fn", "needs_no_ovf",
                 "max_pass", "lines", "line_segs", "n_segs", "last_used",
                 "entry_sq", "entry_taken", "entry_fsm_squash")

    def __init__(self, head: int, mode: bool, instrs: tuple, pcs: tuple, fn,
                 needs_no_ovf: bool, max_pass: int, lines: tuple,
                 line_segs: tuple, n_segs: int, entry_sq: tuple,
                 entry_taken: tuple, entry_fsm_squash: bool):
        self.head = head
        self.mode = mode
        self.n = len(instrs)
        #: indices 0..3 are the prologue (in the latches at entry),
        #: indices 4.. the fetched body
        self.instrs = instrs
        #: absolute fetch PC per index.  A closing path's prologue
        #: repeats its tail, and a seam splits its body into two spans.
        self.pcs = pcs
        self.fn = fn
        self.needs_no_ovf = needs_no_ovf
        self.max_pass = max_pass
        #: ((set_index, tag, (word_offsets...)), ...) in fetch order --
        #: the Icache lines the body spans, probed once per entry.
        self.lines = lines
        #: aligned with ``lines``: each line's word offsets grouped by
        #: fetch segment (-1 = entry segment, k >= 0 = fetched only
        #: after side branch k falls through).  See ``_segment_lines``.
        self.line_segs = line_segs
        self.n_segs = n_segs
        self.last_used = 0
        #: which of the four prologue flights must be squashed at entry
        #: (annulled slots of a squashing branch that resolved not taken)
        self.entry_sq = entry_sq
        #: the taken outcome of each resolved prologue branch (indices
        #: 0..1; always False elsewhere) -- part of the entry contract,
        #: baked into flight materialization at exit sites.
        self.entry_taken = entry_taken
        #: the prologue instruction at index 1 is an active squashing
        #: branch that resolved not taken one cycle before entry, so the
        #: squash FSM must be in BRANCH_SQUASH (the closure emits the
        #: clear on its first cycle).
        self.entry_fsm_squash = entry_fsm_squash


def _segment_lines(lines: tuple, n: int, sides: tuple) -> tuple:
    """Group each Icache line's word offsets by fetch segment.

    Segment -1 holds the body words fetched unconditionally from an
    entry (up to and including the first side branch's second delay
    slot); segment ``k >= 0`` holds the words only fetched once side
    branch ``k`` has resolved not taken.  ``try_enter`` must prove
    segment -1 resident, while later segments degrade to per-side
    ``seg_ok`` flags the closure checks at that side's fall-through --
    a word in a never-taken path may simply never have been fetched,
    and must not block entry.
    """
    if not lines:
        return ()
    seg_of = [-1] * n
    for ordinal, i in enumerate(sides):
        for w in range(i + 3, n):
            seg_of[w] = ordinal
    out = []
    pos = 0
    for _, _, words in lines:
        groups: List[Tuple[int, List[int]]] = []
        for offset, word in enumerate(words):
            seg_id = seg_of[pos + offset]
            if groups and groups[-1][0] == seg_id:
                groups[-1][1].append(word)
            else:
                groups.append((seg_id, [word]))
        out.append(tuple((seg_id, tuple(ws)) for seg_id, ws in groups))
        pos += len(words)
    return tuple(out)


class Translator:
    """Per-pipeline translation cache, hot-loop detector, and compiler."""

    def __init__(self, pipeline):
        self.pipeline = pipeline
        config = pipeline.config
        self.threshold = max(2, config.jit_threshold)
        self.stats = TranslateStats()
        #: head -> TranslatedBlock, bounded by ``MAX_BLOCKS`` (LRU).
        self.blocks: Dict[int, TranslatedBlock] = {}
        #: taken-branch-target counts awaiting the threshold.
        self._counts: Dict[int, int] = {}
        #: heads the compiler refused; never re-scanned until cleared.
        self.dead: set = set()
        #: word address -> [heads] per mode, shared invalidation index.
        self._word_heads: Tuple[dict, dict] = ({}, {})
        #: raised by :meth:`note_store` when a store lands in any
        #: translated region; polled by running closures after every
        #: store cycle, cleared on entry.
        self.dirty = False
        self._clock = 0
        #: bounded span log for the Perfetto "Translated blocks" track;
        #: populated only while ``record_spans`` is on.
        self.record_spans = False
        self.spans: List[dict] = []
        #: wall seconds spent inside :meth:`_compile` (bench telemetry;
        #: not a machine-state quantity, never part of equivalence)
        self.compile_s = 0.0


    # ------------------------------------------------------------ support
    @staticmethod
    def supports(config: MachineConfig) -> bool:
        """Machine shapes the translator can reproduce exactly.

        Two-delay-slot machines only (the 1-slot alternative resolves
        branches in RF), with either a real Icache (in-block fetches are
        proven resident, so they are exact zero-stall hits) or fully
        ideal memory (every fetch and data access is free).
        """
        if config.branch_delay_slots != 2:
            return False
        if config.icache.enabled:
            return True
        return config.icache.miss_cycles == 0 and not config.ecache.enabled

    # ------------------------------------------------------- invalidation
    def note_store(self, address: int, system_mode: bool) -> None:
        """A store committed at ``address``: kill overlapping blocks.

        Driven by the pipeline's single store listener (the same O(1)
        word-address index that invalidates decode memos).  Any running
        closure sees ``dirty`` and bails at the end of the store's MEM
        cycle, before the next fetch could observe the new word.
        """
        heads = self._word_heads[1 if system_mode else 0].get(address)
        if heads:
            self.dirty = True
            for head in list(heads):
                self.invalidate(head)

    def invalidate(self, head: int) -> None:
        """Drop one block and its invalidation-index entries."""
        block = self.blocks.pop(head, None)
        if block is None:
            return
        index = self._word_heads[1 if block.mode else 0]
        for address in block.pcs:
            entry = index.get(address)
            if entry is not None:
                if head in entry:
                    entry.remove(head)
                if not entry:
                    del index[address]
        self.stats.invalidations += 1

    def clear(self) -> None:
        """Forget everything (called on :meth:`Pipeline.reset`: a fresh
        program image is loaded without firing store listeners)."""
        self.blocks.clear()
        self._counts.clear()
        self.dead.clear()
        self._word_heads[0].clear()
        self._word_heads[1].clear()
        self.dirty = False

    # ---------------------------------------------------------- discovery
    def note_target(self, pc: int) -> None:
        """Count a fetch discontinuity landing on ``pc``; compile at the
        threshold.  Untranslatable heads go to the dead set so the
        scanner never re-walks them."""
        counts = self._counts
        count = counts.get(pc, 0) + 1
        if count < self.threshold:
            if len(counts) >= 4096:
                counts.clear()
            counts[pc] = count
            return
        counts.pop(pc, None)
        started = time.perf_counter()
        block = self._compile(pc)
        self.compile_s += time.perf_counter() - started
        if block is None:
            self.stats.rejected += 1
            if len(self.dead) >= 65536:
                self.dead.clear()
            self.dead.add(pc)
            return
        self._admit(block)
        self.stats.compiled += 1

    def _admit(self, block: TranslatedBlock) -> None:
        if len(self.blocks) >= MAX_BLOCKS:
            victim = min(self.blocks.values(), key=lambda b: b.last_used)
            self.invalidate(victim.head)
            self.stats.invalidations -= 1
            self.stats.evictions += 1
        self._clock += 1
        block.last_used = self._clock
        self.blocks[block.head] = block
        index = self._word_heads[1 if block.mode else 0]
        for address in block.pcs:
            index.setdefault(address, []).append(block.head)


    # -------------------------------------------------------------- entry
    def try_enter(self, block: TranslatedBlock, max_cycles: int) -> bool:
        """Run the block's closure if every entry guard holds.

        The entry point is the cycle boundary at which the block's entry
        PC is about to be fetched with the prologue (indices 0..3) in the
        stage latches at known stage ages.  For a closing path that is
        the moment its back edge has just resolved taken.  Everything the
        closure assumes constant is (re)checked here; the Icache ways
        backing the block are gathered for the deferred LRU touches.
        """
        pipe = self.pipeline
        stats = self.stats
        psw = pipe.psw
        # The dispatcher caps max_cycles at the device alarm minus one,
        # so the alarm cycle is always interpreted; the explicit check
        # keeps direct callers honest about the same window.
        budget = min(max_cycles, pipe._device_alarm - 1) - pipe.stats.cycles
        if (budget < block.max_pass
                or psw.system_mode is not block.mode
                or not psw.shift_enabled
                or (block.needs_no_ovf and psw.trap_on_overflow)
                or pipe.trace is not None
                or pipe.fault_hook is not None
                or pipe._halting or pipe.halted
                or pipe._stall_left != 0
                or pipe._ready_fetch is not None
                or pipe._irq_hold != 0
                or pipe._irq_pending or pipe._nmi_pending
                or pipe.pc_unit._redirect != -1
                or pipe.squash_fsm.state is not (
                    _BRANCH_SQUASH if block.entry_fsm_squash else _NORMAL)
                or pipe.memory.mmu.enabled):
            stats.entry_rejected += 1
            return False
        # The latches must reproduce the entry contract: the four
        # in-flight predecessors with the same PCs, squash pattern and
        # branch outcomes.  Prologue branches at 0..1 resolved before
        # entry; their outcome is baked into the exit-site flights.
        # Index 0's memory access already ran its MEM stage; index 1's
        # runs on the first in-block cycle, so it must still be pending
        # and must not touch MMIO space (the closure accesses backing
        # storage directly).
        s = pipe.s
        instrs = block.instrs
        pcs = block.pcs
        entry_sq = block.entry_sq
        entry_taken = block.entry_taken
        for latch in range(4):
            idx = 3 - latch
            flight = s[latch]
            if (flight is None
                    or flight.squashed != entry_sq[idx]
                    or flight.pc != pcs[idx]
                    or not (flight.instr is instrs[idx]
                            or flight.instr == instrs[idx])
                    or (idx < 2 and not entry_sq[idx]
                        and instrs[idx].opcode in _BRANCH_EXPR
                        and bool(flight.taken) != entry_taken[idx])):
                stats.entry_rejected += 1
                return False
        if ((not entry_sq[0] and instrs[0].is_memory_access
             and not s[3].mem_resolved)
                or (not entry_sq[1] and instrs[1].is_memory_access
                    and (s[2].mem_resolved
                         or s[2].mem_address >= pipe.config.mmio_base))):
            stats.entry_rejected += 1
            return False
        # Residency: the entry segment (words fetched before the first
        # side branch could redirect) must be fully resident -- those
        # fetches are unconditional.  Words beyond a side branch degrade
        # to per-side ``seg_ok`` flags: the closure bails at that side's
        # fall-through, before the first fetch that could miss, and the
        # interpreter takes the miss with its exact stall timing.
        ways: List[Tuple[int, int]] = []
        seg_ok: List[bool] = [True] * block.n_segs
        if block.lines:
            residency = pipe.icache.residency
            for (index, tag, _), segs in zip(block.lines, block.line_segs):
                hit = residency(index, tag)
                if hit is None:
                    for seg_id, _words in segs:
                        if seg_id < 0:
                            stats.entry_rejected += 1
                            return False
                        seg_ok[seg_id] = False
                    # cold line: never touched (the pass bails before
                    # its first word's fetch cycle)
                    ways.append((index, 0))
                    continue
                way, valid = hit
                for seg_id, seg_words in segs:
                    for word in seg_words:
                        if not valid[word]:
                            if seg_id < 0:
                                stats.entry_rejected += 1
                                return False
                            seg_ok[seg_id] = False
                            break
                ways.append((index, way))
        stats.entries += 1
        self._clock += 1
        block.last_used = self._clock
        self.dirty = False
        if self.record_spans:
            start = pipe.stats.cycles
            before = stats.cycles
            block.fn(budget, ways, seg_ok)
            if len(self.spans) < 65536:
                self.spans.append({
                    "head": block.head, "n": block.n, "start_cycle": start,
                    "end_cycle": pipe.stats.cycles,
                    "cycles": stats.cycles - before,
                })
        else:
            block.fn(budget, ways, seg_ok)
        return True

    # ----------------------------------------------------------- compiler
    def _compile(self, head: int) -> Optional[TranslatedBlock]:
        """Scan, prove and code-generate the path at ``head``; ``None``
        refuses the head (any construct outside the exact-translation
        subset)."""
        pipe = self.pipeline
        mode = pipe.psw.system_mode
        if head + MAX_BLOCK_WORDS + 3 >= pipe.config.mmio_base:
            return None
        scanned = self._scan(head, mode)
        if scanned is None:
            return None
        path, inv_sides, observed = scanned
        pcs = tuple(pc for pc, _ in path)
        instrs = tuple(instr for _, instr in path)
        n = len(instrs)
        # Squashing side branches annul their two delay slots on every
        # continuing pass (continuing means not taken, the wrong way for
        # a squash-filled branch).  ``sq_owner`` maps each annulled slot
        # index to its branch.  An annulled branch never resolves, so it
        # annuls nothing itself; increasing order makes that causal.
        # Slots may not reach the bottom branch at n-3, and the FSM must
        # be back to NORMAL before it resolves: i <= n-6.  Inverted
        # sides continue on *taken* -- the right way -- so their slots
        # execute and are never annulled.
        sq_owner: Dict[int, int] = {}
        for i in range(4, n - 3):
            if (instrs[i].opcode in _BRANCH_EXPR and instrs[i].squash
                    and i not in sq_owner and i not in inv_sides):
                if i > n - 6:
                    return None
                sq_owner[i + 1] = i
                sq_owner[i + 2] = i
        if observed is None:
            # closing: the prologue is the tail as the back edge leaves
            # it, with the bottom branch (index 1) taken
            entry_sq = tuple(n - 4 + j in sq_owner for j in range(4))
            entry_taken = (False, True, False, False)
        else:
            entry_sq, entry_taken = observed
        for j in range(4):
            if entry_sq[j]:
                sq_owner[j] = -10  # squashed before entry, stays squashed
        sources = self._resolve_operands(instrs, sq_owner, observed is None)
        if sources is None:
            return None
        sides = tuple(i for i in range(4, n - 3)
                      if instrs[i].opcode in _BRANCH_EXPR
                      and i not in sq_owner)
        # only the body (indices 4..) is fetched during a pass
        lines = self._icache_lines(pcs[4:], mode)
        line_segs = _segment_lines(lines, n - 4, tuple(i - 4 for i in sides))
        entry_fsm_squash = (instrs[1].opcode in _BRANCH_EXPR
                            and instrs[1].squash and not entry_sq[1]
                            and not entry_taken[1])
        source_text, needs_no_ovf, max_pass = _generate(
            self, mode, instrs, pcs, sources, lines, sq_owner, sides,
            inv_sides, entry_taken, entry_fsm_squash, observed is None)
        namespace = _exec_namespace(self, mode, instrs)
        code = compile(source_text, f"<translated block {head:#x}>", "exec")
        exec(code, namespace)  # noqa: S102 - self-generated source
        return TranslatedBlock(head, mode, instrs, pcs, namespace["_block"],
                               needs_no_ovf, max_pass, lines, line_segs,
                               len(sides), entry_sq, entry_taken,
                               entry_fsm_squash)

    def _scan(self, entry: int, mode: bool):
        """Walk the hot path forward from ``entry`` and whitelist it.

        A forward conditional branch is a side exit: taken means an
        exact mid-pass exit to its target, not taken falls through.  A
        *squashing* side is also exact, because a pass only continues
        past it when it resolved not taken -- the wrong way for a
        squash-filled branch -- so its two delay slots are annulled on
        every continuing pass and compile to squashed no-op flights (see
        ``sq_owner``).  The first backward branch ends the walk:

        * a branch back to ``entry`` *closes* the path;
        * a branch to below ``entry`` is followed, once, as a *seam*: it
          becomes a polarity-inverted side (the pass continues when it
          is taken, so its slots execute and nothing squashes) and the
          walk resumes at its target, strictly below ``entry``, until a
          branch to ``entry`` closes the path;
        * any other backward branch, or a seam that does not close
          within ``MAX_BLOCK_WORDS``, ends a *one-pass* path.

        The terminating branch's two delay slots end the body.

        A one-pass path's prologue is the four flights observed in the
        latches *right now* (``note_target`` compiles at a live
        arrival): their PCs, squash pattern and branch outcomes become
        the entry contract, and arrivals that do not reproduce it are
        rejected at entry and stay interpreted -- hot targets have a
        dominant arrival path, so the observed instance is the one that
        pays.  A closing path's prologue is its own tail.

        Returns ``(path, inv_sides, observed)`` or ``None``: ``path``
        lists ``(pc, instr)`` over the combined prologue+body sequence,
        and ``observed`` is ``(entry_sq, entry_taken)`` for a one-pass
        path and ``None`` for a closing one.
        """
        pipe = self.pipeline
        decode_at = pipe._decode_at
        body: List[Tuple[int, object]] = []

        def to_branch(pc: int, stop: int) -> Optional[int]:
            """Extend ``body`` from ``pc`` through the first branch that
            is backward or targets ``entry``; return its target, or
            ``None`` at an untranslatable word, ``stop`` or the limit."""
            while len(body) <= MAX_BLOCK_WORDS and pc < stop:
                instr = decode_at(pc, mode)
                body.append((pc, instr))
                if instr.opcode in _BRANCH_EXPR:
                    target = (pc + instr.imm) & _MASK
                    if target <= pc or target == entry:
                        return target
                elif not _translatable(instr):
                    return None
                pc += 1
            return None

        def delay_slots() -> bool:
            """Append the last branch's two delay slots."""
            pc = body[-1][0]
            for slot in (pc + 1, pc + 2):
                instr = decode_at(slot, mode)
                if not _translatable(instr):
                    return False
                body.append((slot, instr))
            return True

        target = to_branch(entry, _MASK)
        if target is None or not delay_slots():
            return None
        closes = target == entry and len(body) > 3
        inv_sides: frozenset = frozenset()
        if target < entry:
            seam = len(body)
            if to_branch(target, entry - 2) == entry and delay_slots():
                closes = True
                inv_sides = frozenset({seam + 1})  # prologue shifts by 4
            else:
                del body[seam:]
        if closes:
            return body[-4:] + body, inv_sides, None
        s = pipe.s
        if s[0] is None or s[1] is None or s[2] is None or s[3] is None:
            return None
        mmio_base = pipe.config.mmio_base
        prologue: List[Tuple[int, object]] = []
        entry_sq: List[bool] = []
        entry_taken: List[bool] = []
        for flight in (s[3], s[2], s[1], s[0]):
            pc = flight.pc
            if pc < 0 or pc + 1 >= mmio_base:
                return None
            instr = decode_at(pc, mode)
            squashed = flight.squashed
            if instr.opcode in _BRANCH_EXPR:
                # indices 2..3 resolve mid-pass: only annulled ones are
                # static; indices 0..1 resolved pre-entry either way
                if len(prologue) >= 2 and not squashed:
                    return None
            elif not _translatable(instr):
                return None
            prologue.append((pc, instr))
            entry_sq.append(squashed)
            entry_taken.append(bool(flight.taken) and not squashed)
        return prologue + body, inv_sides, (tuple(entry_sq),
                                            tuple(entry_taken))

    @staticmethod
    def _resolve_operands(instrs: tuple, sq_owner: dict, closes: bool):
        """Static bypass routing: map every register read of every
        instruction whose ALU stage runs in the pass (indices 2..n-3) to
        a producer local, a block-invariant binding, or a literal zero
        -- or refuse on an unbypassable load-use pair.  Annulled slots
        (``sq_owner`` keys) neither read nor produce: the interpreter's
        bypass skips squashed flights the same way.  Producers are
        walked backward through the pass and its prologue; a closing
        path then continues into the previous pass (indices ``n-5`` down
        to the reader itself), whose locals the first pass seeds from
        the register file (``carried``)."""
        n = len(instrs)
        sources: List[dict] = [{} for _ in range(n)]
        invariants = set()
        carried = set()
        for idx in range(2, n - 2):
            if idx in sq_owner:
                continue
            resolved = sources[idx]
            earlier = tuple(range(idx - 1, -1, -1))
            if closes:
                earlier += tuple(range(n - 5, idx - 1, -1))
            for slot, reg in _operand_slots(instrs[idx]):
                if reg == 0:
                    resolved[slot] = "0"
                    continue
                expr = None
                for p in earlier:
                    if p in sq_owner:
                        continue
                    if instrs[p].writes_register() == reg:
                        if p == idx - 1 and instrs[p].opcode == Opcode.LD:
                            return None  # load-use: interpreter territory
                        if p >= idx:
                            carried.add(p)
                        expr = f"v{p}"
                        break
                if expr is None:
                    expr = f"rr{reg}"
                    invariants.add(reg)
                resolved[slot] = expr
        return sources, invariants, carried

    def _icache_lines(self, pcs: tuple, mode: bool) -> tuple:
        """The (set, tag, word-offsets) triples the block's fetches span,
        in fetch order, for entry-time residency probes and deferred
        LRU touches.  A seam may split (or even repeat) a line; repeats
        are harmless -- probes and touches follow fetch order exactly.
        Empty when the Icache is disabled."""
        icache = self.pipeline.icache
        if not self.pipeline.config.icache.enabled:
            return ()
        lines: List[Tuple[int, int, List[int]]] = []
        for pc in pcs:
            index, tag, word = icache.locate(pc, mode)
            if lines and lines[-1][0] == index and lines[-1][1] == tag:
                lines[-1][2].append(word)
            else:
                lines.append((index, tag, [word]))
        return tuple((index, tag, tuple(words))
                     for index, tag, words in lines)


def _translatable(instr) -> bool:
    """Inlineable straight-line instruction (no control, no coproc)."""
    op = instr.opcode
    if op in (Opcode.LD, Opcode.ST, Opcode.ADDI):
        return True
    if op != Opcode.COMPUTE:
        return False
    funct = instr.funct
    if funct not in _INLINE_FUNCTS:
        return False
    if funct == Funct.MOVFRS:
        try:
            return SpecialReg(instr.shamt) in _INLINE_SPECIALS
        except ValueError:
            return False
    return True


def _operand_slots(instr):
    """(slot_name, register) pairs the ALU stage reads for ``instr``."""
    op = instr.opcode
    if op == Opcode.COMPUTE:
        funct = instr.funct
        if funct in (Funct.SLL, Funct.SRL, Funct.SRA, Funct.ROTL,
                     Funct.NOT):
            return (("a", instr.src1),)
        if funct == Funct.MOVFRS:
            return ()
        return (("a", instr.src1), ("b", instr.src2))
    if op in (Opcode.LD, Opcode.ADDI):
        return (("a", instr.src1),)
    if op == Opcode.ST:
        return (("a", instr.src1), ("b", instr.src2))
    # branch
    return (("a", instr.src1), ("b", instr.src2))


def _exec_namespace(translator: Translator, mode: bool,
                    instrs: tuple) -> dict:
    """Globals for one block's generated function: everything stable
    over the pipeline's lifetime is pre-bound here, so the closure does
    no attribute walks on its hot path."""
    pipe = translator.pipeline
    from repro.core.pipeline import Flight  # local: avoid import cycle
    return {
        "__builtins__": {},
        "P": pipe,
        "F": Flight,
        "I": instrs,
        "ST": pipe.stats,
        "IST": pipe.icache.stats,
        "TS": translator.stats,
        "TR": translator,
        "ECR": pipe.ecache.read,
        "ECW": pipe.ecache.write,
        "MW": pipe.memory.write,
        "SP": pipe.memory.space(mode),
        "MD": pipe.md,
        "CH": pipe.pc_unit.chain.shift,
        "SFS": pipe.squash_fsm.step,
        "REGS": pipe.regs,
        "TCH": pipe.icache.bulk_touch,
    }


# ---------------------------------------------------------------- codegen
class _Emitter:
    """Tiny indented-source builder."""

    def __init__(self):
        self.lines: List[str] = []
        self.depth = 0

    def emit(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def _alu_expr(instr, src: dict) -> Optional[str]:
    """Inline expression for a compute/addi result, or ``None`` when the
    operation needs statements (mstep/dstep) handled by the caller."""
    funct = instr.funct
    a = src.get("a")
    b = src.get("b")
    if funct == Funct.ADD:
        return f"({a} + {b}) & {_MASK}"
    if funct == Funct.SUB:
        return f"({a} - {b}) & {_MASK}"
    if funct == Funct.AND:
        return f"{a} & {b}"
    if funct == Funct.OR:
        return f"{a} | {b}"
    if funct == Funct.XOR:
        return f"{a} ^ {b}"
    if funct == Funct.NOT:
        return f"~{a} & {_MASK}"
    shamt = instr.shamt
    if funct == Funct.SLL:
        return f"({a} << {shamt}) & {_MASK}" if shamt else f"{a}"
    if funct == Funct.SRL:
        return f"{a} >> {shamt}" if shamt else f"{a}"
    if funct == Funct.SRA:
        if not shamt:
            return f"{a}"
        return (f"((({a} - {1 << 32}) >> {shamt}) & {_MASK}) "
                f"if {a} & {_SIGN} else ({a} >> {shamt})")
    if funct == Funct.ROTL:
        if not shamt:
            return f"{a}"
        return f"(({a} << {shamt}) | ({a} >> {32 - shamt})) & {_MASK}"
    if funct == Funct.MOVFRS:
        special = SpecialReg(instr.shamt)
        if special == SpecialReg.PSW:
            return "_psw"
        if special == SpecialReg.PSWOLD:
            return "_pswold"
        return "MD.value"
    return None


def _generate(translator: Translator, mode: bool, instrs: tuple, pcs: tuple,
              sources, lines: tuple, sq_owner: Dict[int, int], sides: tuple,
              inv_sides: frozenset, entry_taken: tuple,
              entry_fsm_squash: bool, closes: bool):  # noqa: C901
    """Emit the block's specialized function source.

    The emitted pass replays the interpreter's exact event order for
    cycles ``4..n-1``: cycle ``c`` fetches index ``c``, writes back
    ``c-4``, runs MEM for ``c-3`` (Ecache probe first) and ALU for
    ``c-2``.  So the prologue (indices 0..3, in flight at entry; their
    latched results seed the locals) retires during the first cycles,
    and the bottom branch at ``n-3`` resolves in cycle ``n-1``.  Exits
    and bails materialize end-of-cycle machine state.  ``sq_owner``
    slots are annulled on every continuing pass: they are fetched and
    occupy latch slots but do no work and retire nothing.  ``sides``
    are the branches resolved mid-pass; ``inv_sides`` among them are
    polarity-inverted (a seam): the pass continues when they are taken.

    A closing block runs the pass in a loop.  When the bottom branch
    resolves taken, the fetch PC is back at the entry and the latches
    hold the tail ``n-4..n-1`` -- the prologue again -- so the back edge
    rebinds the prologue locals from the tail, counts ``it`` and
    repeats, unless the cycle budget runs out or a store made the block
    dirty.  Every exit site adds ``it`` times the per-pass counts to the
    counts of its own partial pass.
    """
    pipe = translator.pipeline
    config = pipe.config
    per_site, invariants, carried = sources
    n = len(instrs)
    period = n - 4
    ecache_on = config.ecache.enabled
    icache_on = config.icache.enabled
    lru = icache_on and config.icache.replacement == "lru"
    mode_lit = "True" if mode else "False"
    mmio_base = config.mmio_base
    sq_set = frozenset(sq_owner)

    writers = {}           # idx -> dest register
    for idx, instr in enumerate(instrs):
        dest = instr.writes_register()
        if dest is not None and idx not in sq_set:
            writers[idx] = dest
    carries_result = {idx for idx, instr in enumerate(instrs)
                      if instr.opcode in (Opcode.COMPUTE, Opcode.ADDI,
                                          Opcode.LD) and idx not in sq_set}
    mem_ops = {idx for idx, instr in enumerate(instrs)
               if instr.opcode in (Opcode.LD, Opcode.ST)
               and idx not in sq_set}
    noop_idx = {idx for idx, instr in enumerate(instrs)
                if instr.is_nop and idx not in sq_set}
    # ALU stages run in-pass for indices 2..n-3 only: prologue 0..1 ran
    # theirs before entry (any overflow trap already happened, or not),
    # and the bottom delay slots run theirs after the pass
    needs_no_ovf = any(
        instrs[idx].opcode == Opcode.COMPUTE
        and instrs[idx].funct in (Funct.ADD, Funct.SUB, Funct.MSTEP)
        for idx in range(2, n - 2) if idx not in sq_set)

    # distinct-line prefix counts for the deferred LRU touches: fetch
    # cycle c pulls body word c-4
    line_prefix = [0] * n
    if lines:
        seen = 0
        boundaries = []
        offset = 0
        for _, _, words in lines:
            boundaries.append(offset)
            offset += len(words)
        for cycle in range(4, n):
            while seen < len(boundaries) and boundaries[seen] <= cycle - 4:
                seen += 1
            line_prefix[cycle] = seen
    total_lines = len(lines)

    branch = instrs[n - 3]
    #: normal sides: taken -> exact exit to their target, not-taken ->
    #: fall through.  Annulled branches never resolve and are not here.
    side_branches = tuple(i for i in sides if i not in inv_sides)
    #: active squashing sides: continuing past one is the wrong way, so
    #: the squash FSM pulses BRANCH_SQUASH for the following cycle.
    squashing_sides = tuple(i for i in side_branches if instrs[i].squash)
    sfs_clear_cycles = {i + 3 for i in squashing_sides}
    if entry_fsm_squash:
        # entered one cycle after prologue index 1 squashed the wrong
        # way: the FSM is in BRANCH_SQUASH at entry and falls back to
        # NORMAL at the end of the first in-block cycle
        sfs_clear_cycles.add(4)

    def counts(cycle: int, kind: str, side_idx: int = -1) -> Dict[str, int]:
        """Pipeline events of cycles ``4..cycle`` of a pass that ends at
        a ``kind`` site: writebacks retire indices ``0..cycle-4``, MEM
        stages run ``1..cycle-3``, branches at ``i`` resolve at ``i+2``."""
        wb = range(cycle - 3)
        mem = [instrs[j].opcode for j in range(1, cycle - 2) if j in mem_ops]
        squashed = sum(1 for j in wb if j in sq_set)
        taken = sum(1 for i in inv_sides if i + 2 <= cycle)
        if kind in ("side", "taken"):
            taken += 1    # this normal side / the bottom branch
        elif kind == "iexit":
            taken -= 1    # this inverted side fell through
        return {
            "cycles": cycle - 3,
            "retired": cycle - 3 - squashed,
            "squashed": squashed,
            "noops": sum(1 for j in wb if j in noop_idx),
            "branches": sum(1 for i in sides + (n - 3,) if i + 2 <= cycle),
            "taken": taken,
            "loads": mem.count(Opcode.LD),
            "stores": mem.count(Opcode.ST),
        }

    per_pass = counts(n - 1, "taken")
    max_pass = period + ((per_pass["loads"] + per_pass["stores"])
                         * config.ecache.miss_penalty if ecache_on else 0)

    out = _Emitter()
    emit = out.emit
    emit("def _block(bud, ws, sok):")
    out.depth += 1
    emit("R = REGS._regs")
    emit("MG = SP._words.get")
    # Per-side segment-residency flags: a False flag means the words
    # past that side's fall-through were not all Icache-resident at
    # entry, so the pass must bail there (the interpreter then takes
    # the miss with exact stall timing).  Fixed for the whole
    # activation: in-block fetches hit and cannot evict anything.
    if icache_on and total_lines:
        for ordinal in range(len(sides)):
            emit(f"sk{ordinal} = sok[{ordinal}]")
    if any(instrs[idx].opcode == Opcode.COMPUTE
           and instrs[idx].funct == Funct.MOVFRS
           and SpecialReg(instrs[idx].shamt) == SpecialReg.PSW
           for idx in range(n)):
        emit("_psw = P.psw.value")
    if any(instrs[idx].opcode == Opcode.COMPUTE
           and instrs[idx].funct == Funct.MOVFRS
           and SpecialReg(instrs[idx].shamt) == SpecialReg.PSWOLD
           for idx in range(n)):
        emit("_pswold = P.psw_old.value")
    for reg in sorted(invariants):
        emit(f"rr{reg} = R[{reg}]")
    # Seeds: locals that can be read before their first in-pass
    # assignment.  The prologue's latched results come first (an
    # in-flight load at index 1 gets its value in its in-pass MEM).
    if 0 in carries_result:
        emit("v0 = P.s[3].result")
    if 0 in mem_ops:
        emit("a0 = P.s[3].mem_address")
        if instrs[0].opcode == Opcode.ST:
            emit("sv0 = P.s[3].store_value")
    if 1 in carries_result and instrs[1].opcode != Opcode.LD:
        emit("v1 = P.s[2].result")
    if 1 in mem_ops:
        emit("a1 = P.s[2].mem_address")
        if instrs[1].opcode == Opcode.ST:
            emit("sv1 = P.s[2].store_value")
    # A closing block also reads the previous pass: operands carried
    # over the back edge, and each register's last writeback of a pass
    # (committed at an exit that precedes this pass's writeback).  On
    # the first pass both are by definition the register-file content.
    last_wb = {}
    if closes:
        for idx in sorted(carried):
            emit(f"v{idx} = R[{writers[idx]}]")
        for idx, reg in writers.items():
            if idx < period:
                last_wb[reg] = max(idx, last_wb.get(reg, -1))
        for reg, idx in sorted(last_wb.items()):
            emit(f"w{idx} = R[{reg}]")
    emit("pen = 0")
    if closes:
        emit("it = 0")
        emit("while True:")
        out.depth += 1

    def emit_flight(var: str, idx: int, age: int, squashed: bool,
                    taken: Optional[bool]) -> None:
        """Materialize the idx-instance at stage-age ``age`` (stages
        completed) exactly as the interpreter would have left it;
        ``taken`` overrides the outcome of a branch resolved at the
        site's own cycle."""
        instr = instrs[idx]
        emit(f"{var} = F({pcs[idx]}, I[{idx}])")
        if squashed:
            # annulled in IF/RF: no stage ever computed a field
            emit(f"{var}.squashed = True")
            return
        if age < 2:
            return
        op = instr.opcode
        if op in _BRANCH_EXPR:
            # The bottom branch and inverted sides are taken at every
            # resolution a continuing pass sees; a normal side resolved
            # in-pass was not; a prologue branch resolved before entry
            # keeps its contract outcome.
            if taken is None:
                taken = (idx == n - 3 or idx in inv_sides
                         or (idx < 2 and entry_taken[idx]))
            if taken:
                emit(f"{var}.taken = True")
            return
        if op == Opcode.LD:
            emit(f"{var}.mem_address = a{idx}")
            if writers.get(idx) is not None:
                emit(f"{var}.dest = {writers[idx]}")
            if age >= 3:
                emit(f"{var}.result = v{idx}")
                emit(f"{var}.mem_resolved = True")
            return
        if op == Opcode.ST:
            emit(f"{var}.mem_address = a{idx}")
            emit(f"{var}.store_value = sv{idx}")
            if age >= 3:
                emit(f"{var}.mem_resolved = True")
            return
        if op == Opcode.ADDI:
            emit(f"{var}.mem_address = v{idx}")
        if idx in carries_result:
            if writers.get(idx) is not None:
                emit(f"{var}.dest = {writers[idx]}")
            emit(f"{var}.result = v{idx}")

    def emit_commits(cycle: int) -> None:
        """Register-file commits at an end-of-``cycle`` site: for each
        written register, the writer with the most recent WB -- in this
        pass, or else (closing blocks) the previous pass's last."""
        by_reg: Dict[int, Tuple[int, int]] = {}
        for idx, reg in writers.items():
            if idx + 4 <= cycle:
                rank = n + idx
            elif last_wb.get(reg) == idx:
                rank = idx
            else:
                continue
            if rank > by_reg.get(reg, (-1, 0))[0]:
                by_reg[reg] = (rank, idx)
        for reg in sorted(by_reg):
            emit(f"R[{reg}] = w{by_reg[reg][1]}")

    def emit_site(cycle: int, kind: str, side_idx: int = -1) -> None:
        """One exit site at the end of pass cycle ``cycle``.

        ``kind``: "bail" (MMIO/dirty/cold-segment mid-pass), "side"
        (the normal side branch at ``side_idx`` resolved taken; exit to
        its target), "iexit" (the inverted side at ``side_idx`` fell
        through; exit past its delay slots, wrong-way squash applied
        when it has the squash bit), "exit" (bottom branch not taken;
        likewise wrong-way), "taken" (bottom branch taken: redirect to
        its target -- for a closing block, the entry, when the budget
        is exhausted or a store in the final MEM slot made it dirty).
        """
        part = counts(cycle, kind, side_idx)

        def total(key: str) -> str:
            if closes and per_pass[key]:
                return f"it * {per_pass[key]} + {part[key]}"
            return f"{part[key]}"

        # pipeline statistics: it complete passes + this partial one
        emit(f"ST.cycles += {total('cycles')} + pen")
        emit(f"ST.fetched += {total('cycles')}")
        emit(f"ST.retired += {total('retired')}")
        for key in ("squashed", "noops", "loads", "stores"):
            if per_pass[key] or part[key]:
                emit(f"ST.{key} += {total(key)}")
        emit(f"ST.branches += {total('branches')}")
        emit(f"ST.branches_taken += {total('taken')}")
        emit("ST.data_stall_cycles += pen")
        if icache_on:
            emit(f"IST.accesses += {total('cycles')}")
        emit(f"TS.cycles += {total('cycles')} + pen")
        emit(f"TS.instructions += {total('retired')}")
        if kind == "bail":
            emit("TS.bails += 1")
        elif kind == "side":
            emit("TS.side_exits += 1")
        # deferred Icache LRU reordering: every line once per completed
        # pass, then the lines this partial pass has reached
        if lru and total_lines:
            prefix = line_prefix[cycle]
            if closes and prefix < total_lines:
                emit("if it:")
                out.depth += 1
                emit(f"TCH(ws, {total_lines})")
                out.depth -= 1
            if prefix:
                emit(f"TCH(ws, {prefix})")
        # latches: end of ``cycle``, s[k] holds index cycle-k at
        # stage-age k; the branch resolved this cycle is at s[2]
        resolved = {"side": True, "exit": False, "iexit": False}.get(kind)
        for k in range(5):
            idx = cycle - k
            owner = sq_owner.get(idx)
            # annulled once its branch resolved not taken
            sq = owner is not None and (
                cycle > owner + 2
                or (cycle == owner + 2
                    and not (kind == "side" and side_idx == owner)))
            emit_flight(f"f{k}", idx, k, sq, resolved if k == 2 else None)
        wrong_way = (kind == "exit" and branch.squash) or (
            kind == "iexit" and instrs[side_idx].squash)
        if wrong_way:
            emit("f0.squashed = True")
            emit("f1.squashed = True")
        emit("P.s = [f0, f1, f2, f3, f4]")
        emit_commits(cycle)
        emit(f"CH({pcs[cycle - 3]}, {pcs[cycle - 2]}, {pcs[cycle - 1]})")
        if kind == "bail":
            fetch_pc = pcs[cycle + 1]
        elif kind in ("side", "taken"):
            fetch_pc = (pcs[side_idx] + instrs[side_idx].imm) & _MASK
        elif kind == "iexit":
            fetch_pc = pcs[side_idx] + 3
        else:
            fetch_pc = pcs[n - 1] + 1
        emit(f"P.pc_unit.fetch_pc = {fetch_pc}")
        if wrong_way:
            emit("ST.branch_squashes += 1")
            emit("SFS(False, True)")
        emit("return")

    def emit_branch_cond(idx: int) -> str:
        """Emit operand prep for the branch at ``idx`` and return its
        taken-condition expression."""
        cmp_op, signed = _BRANCH_EXPR[instrs[idx].opcode]
        src = per_site[idx]
        a_expr, b_expr = src["a"], src["b"]
        if not signed:
            return f"{a_expr} {cmp_op} {b_expr}"
        emit(f"_ba = {a_expr}")
        emit(f"_bb = {b_expr}")
        emit(f"_ba = _ba - {1 << 32} if _ba & {_SIGN} else _ba")
        emit(f"_bb = _bb - {1 << 32} if _bb & {_SIGN} else _bb")
        return f"_ba {cmp_op} _bb"

    # ------------------------------------------------- per-cycle emission
    for cycle in range(4, n):
        probe_idx = cycle - 3
        wb_idx = cycle - 4
        alu_idx = cycle - 2
        emit(f"# cycle {cycle}: fetch {pcs[cycle]:#x} | wb i{wb_idx} "
             f"| mem i{probe_idx} | alu i{alu_idx}")
        bail_conditions = []
        # MEM-entry Ecache probe (late-miss protocol timing)
        if probe_idx in mem_ops and ecache_on:
            fn = "ECR" if instrs[probe_idx].opcode == Opcode.LD else "ECW"
            emit(f"pen += {fn}(a{probe_idx}, {mode_lit})")
        # WB: commit the writer's value into its w local
        if wb_idx in writers:
            emit(f"w{wb_idx} = v{wb_idx}")
        # MEM work
        if probe_idx in mem_ops:
            if instrs[probe_idx].opcode == Opcode.LD:
                emit(f"v{probe_idx} = MG(a{probe_idx}, 0)")
            else:
                emit(f"MW(a{probe_idx}, sv{probe_idx}, {mode_lit})")
                if cycle != n - 1:
                    bail_conditions.append("TR.dirty")
        # ALU work
        if alu_idx == n - 3:
            # bottom branch: resolved below, after any store-dirty check
            pass
        elif alu_idx in sq_set:
            pass  # annulled delay slot: fetched, no work, no effects
        elif alu_idx in inv_sides:
            # inverted side (the seam): TAKEN is the way that
            # *continues* the path -- its delay slots straddle the seam
            # and always execute.  Not-taken exits at the fall-through;
            # for a squash-filled branch that is the wrong way, so the
            # iexit site annuls the two seam slots and pulses the FSM.
            cond = emit_branch_cond(alu_idx)
            emit(f"if not ({cond}):")
            out.depth += 1
            emit_site(cycle, "iexit", alu_idx)
            out.depth -= 1
            if icache_on and total_lines:
                # continuing crosses the seam into this side's segment
                bail_conditions.append(f"not sk{sides.index(alu_idx)}")
        elif alu_idx in side_branches:
            # side branch: taken -> exact exit to its target.  The
            # redirect out-prioritizes a dirty store committed this same
            # cycle (both happened; only the exit PC differs), so the
            # taken site is emitted before the dirty bail below.
            cond = emit_branch_cond(alu_idx)
            emit(f"if {cond}:")
            out.depth += 1
            emit_site(cycle, "side", alu_idx)
            out.depth -= 1
            if instrs[alu_idx].squash:
                # continuing = not taken = the wrong way for a
                # squash-filled branch: its delay slots (annulled, see
                # sq_owner) are counted squashed at their WB, and the
                # squash FSM pulses BRANCH_SQUASH for one cycle.
                emit("ST.branch_squashes += 1")
                emit("SFS(False, True)")
            if icache_on and total_lines:
                # next fetch (cycle+1) starts this side's fall-through
                # segment; if it was cold at entry, bail before it
                bail_conditions.append(f"not sk{sides.index(alu_idx)}")
        else:
            instr = instrs[alu_idx]
            src = per_site[alu_idx]
            op = instr.opcode
            if op in (Opcode.LD, Opcode.ST, Opcode.ADDI):
                imm = instr.imm
                base = src["a"]
                addr = f"({base} + {imm}) & {_MASK}" if imm else f"{base}"
                if op == Opcode.ADDI:
                    emit(f"v{alu_idx} = {addr}")
                else:
                    emit(f"a{alu_idx} = {addr}")
                    if op == Opcode.ST:
                        emit(f"sv{alu_idx} = {src['b']}")
                    bail_conditions.append(f"a{alu_idx} >= {mmio_base}")
            elif instr.funct in (Funct.MSTEP, Funct.DSTEP):
                call = "mstep" if instr.funct == Funct.MSTEP else "dstep"
                emit(f"_t = MD.{call}({src['a']}, {src['b']})")
                emit(f"v{alu_idx} = _t.value")
            else:
                emit(f"v{alu_idx} = {_alu_expr(instr, src)}")
        if cycle in sfs_clear_cycles:
            emit("SFS(False, False)")  # FSM falls back to NORMAL
        if bail_conditions:
            emit(f"if {' or '.join(bail_conditions)}:")
            out.depth += 1
            emit_site(cycle, "bail")
            out.depth -= 1

    # ------------------------------------------- bottom branch resolution
    cond = emit_branch_cond(n - 3)
    emit(f"if {cond}:")
    out.depth += 1
    if closes:
        # back edge: stop before a pass that might overrun the budget
        stop = [f"bud - it * {period} - pen < {max_pass + period}"]
        if (n - 4) in mem_ops and instrs[n - 4].opcode == Opcode.ST:
            stop.insert(0, "TR.dirty")
        emit(f"if {' or '.join(stop)}:")
        out.depth += 1
        emit_site(n - 1, "taken", n - 3)
        out.depth -= 1
        emit("it += 1")
        # the tail becomes the next pass's prologue; indices 1..3 carry
        # no values past the back edge (the bottom branch, and two
        # slots whose ALU stages have not run yet)
        if 0 in carries_result:
            emit(f"v0 = v{n - 4}")
        if 0 in mem_ops:
            emit(f"a0 = a{n - 4}")
            if instrs[0].opcode == Opcode.ST:
                emit(f"sv0 = sv{n - 4}")
    else:
        emit_site(n - 1, "taken", n - 3)
    out.depth -= 1
    emit("else:")
    out.depth += 1
    emit_site(n - 1, "exit")
    out.depth -= 1

    return out.source(), needs_no_ovf, max_pass
