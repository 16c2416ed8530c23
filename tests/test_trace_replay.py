"""Exact-equivalence tests for the trace-driven replay models.

The capture-once/replay-many pipeline is only admissible because the
replay models are *bit-exact* against the live simulators; these tests
pin that down three ways:

* randomized (hypothesis) address streams through the Icache and Ecache
  replay models vs. the live caches, across organizations and policies;
* real pipeline-captured streams: a workload runs on the cycle-accurate
  machine with a :class:`TraceCollector` attached and the recorded
  streams replay to the machine's own cache statistics;
* the Table 1 branch study replayed from stored counts/plans equals the
  live evaluation, and every quick-grid row of the branch, Icache and
  Ecache sweeps (which compute through replay) equals the live
  evaluator's, also when two workers fill an empty store at once.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import EcacheConfig, IcacheConfig
from repro.ecache import trace_sim as ecache_sim
from repro.ecache.ecache import Ecache
from repro.icache import trace_sim as icache_sim
from repro.icache.cache import simulate
from repro.traces.store import TraceStore


def icache_signature(stats):
    return (stats.accesses, stats.hits, stats.misses,
            stats.words_filled, stats.tag_allocations)


geometries = st.sampled_from([
    (4, 8, 16),   # the paper's organization
    (2, 4, 8),
    (8, 2, 4),
    (1, 4, 4),    # fully associative
    (16, 1, 2),   # direct mapped
    (4, 2, 1),    # single-word blocks (the replay fast path)
])


class TestIcacheReplayEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(geometry=geometries,
           fetchback=st.integers(0, 4),
           policy=st.sampled_from(["lru", "fifo", "random"]),
           addresses=st.lists(st.integers(0, 4095),
                              min_size=1, max_size=400))
    def test_replay_matches_live_simulation(self, geometry, fetchback,
                                            policy, addresses):
        sets, ways, block = geometry
        config = IcacheConfig(sets=sets, ways=ways, block_words=block,
                              fetchback=fetchback, replacement=policy)
        live = simulate(config, addresses)
        replayed = icache_sim.replay(
            config, np.asarray(addresses, dtype=np.int64))
        assert icache_signature(replayed) == icache_signature(live)

    @settings(max_examples=20, deadline=None)
    @given(addresses=st.lists(st.integers(0, 2047),
                              min_size=1, max_size=300))
    def test_repeated_runs_stay_exact(self, addresses):
        # stress the run/repeat collapse: loop the same window many times
        looped = addresses * 5
        config = IcacheConfig()
        live = simulate(config, looped)
        replayed = icache_sim.replay(
            config, np.asarray(looped, dtype=np.int64))
        assert icache_signature(replayed) == icache_signature(live)

    def test_empty_trace(self):
        stats = icache_sim.replay(IcacheConfig(),
                                  np.empty(0, dtype=np.int64))
        assert stats.accesses == 0 and stats.misses == 0


class TestEcacheReplayEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(size_words=st.sampled_from([64, 256, 1024]),
           line_words=st.sampled_from([1, 4, 8]),
           write_through=st.booleans(),
           refs=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 8191)),
                         min_size=1, max_size=400))
    def test_replay_matches_live_ecache(self, size_words, line_words,
                                        write_through, refs):
        config = EcacheConfig(size_words=size_words, line_words=line_words,
                              write_through=write_through)
        cache = Ecache(config)
        live_stall = 0
        for kind, address in refs:
            if kind == ecache_sim.KIND_READ:
                live_stall += cache.read(address, True)
            elif kind == ecache_sim.KIND_WRITE:
                live_stall += cache.write(address, True)
            else:
                live_stall += cache.ifetch(address, True)
        kinds = np.array([k for k, _ in refs], dtype=np.int8)
        addresses = np.array([a for _, a in refs], dtype=np.int64)
        stats, stall = ecache_sim.replay(config, kinds, addresses)
        assert stats == cache.stats
        assert stall == live_stall

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ecache_sim.replay(EcacheConfig(), [0, 0], [1])


class TestPipelineCapturedStreams:
    """A real workload's captured streams replay to the machine's stats."""

    @pytest.fixture(scope="class")
    def captured(self):
        from repro.core import Machine, MachineConfig
        from repro.traces.capture import TraceCollector
        from repro.workloads import cached_program

        machine = Machine(MachineConfig())
        collector = TraceCollector(ecache=True)
        machine.set_trace(collector)
        machine.load_program(cached_program("sieve"))
        machine.run(2_000_000)
        assert machine.halted
        return machine, collector

    def test_fetch_stream_replays_to_icache_stats(self, captured):
        machine, collector = captured
        replayed = icache_sim.replay(machine.config.icache,
                                     collector.fetch_array())
        assert (icache_signature(replayed)
                == icache_signature(machine.icache.stats))

    def test_ecache_stream_replays_to_ecache_stats(self, captured):
        machine, collector = captured
        kinds, addresses = collector.ecache_arrays()
        stats, _ = ecache_sim.replay(machine.config.ecache, kinds, addresses)
        assert stats == machine.ecache.stats


class TestTable1Replay:
    NAMES = ("sieve", "bubble")

    def test_traced_equals_live(self, tmp_path):
        from repro.analysis.branch_schemes import table1
        from repro.analysis.trace_replay import table1_traced

        live = table1(self.NAMES)
        store = TraceStore(root=tmp_path)
        traced = table1_traced(self.NAMES, store=store)
        assert store.misses > 0
        for a, b in zip(live, traced):
            assert a.scheme.name == b.scheme.name
            assert (a.executions, a.cycles) == (b.executions, b.cycles)
            assert a.cycles_per_branch == b.cycles_per_branch

        # a warm second pass is served entirely from the store
        warm = TraceStore(root=tmp_path)
        again = table1_traced(self.NAMES, store=warm)
        assert warm.misses == 0 and warm.hits > 0
        assert [(e.executions, e.cycles) for e in again] == \
            [(e.executions, e.cycles) for e in traced]

    def test_source_hash_keys_the_store(self, tmp_path):
        from repro.analysis.trace_replay import (
            branch_counts_descriptor,
            workload_source_hash,
        )

        key = branch_counts_descriptor("sieve")
        assert key["source"] == workload_source_hash("sieve")
        assert (branch_counts_descriptor("sieve")["source"]
                != branch_counts_descriptor("bubble")["source"])


#: the sweeps whose points compute through trace replay
REPLAYED_SWEEPS = ("branch-schemes", "icache-organizations", "ecache-sweep")


def _quick_rows(sweep):
    from repro.harness.experiments import sweep_jobs
    from repro.harness.runner import resolve

    return [(job.params, resolve(job.fn)(**job.params))
            for job in sweep_jobs(sweep, quick=True)]


class TestTracedSweepsMatchLivePoints:
    """Every quick-grid row of the replayed sweeps equals what the live
    evaluator computes for the same parameters, exactly."""

    def test_branch_sweep_row_matches_live_point(self):
        from repro.analysis.branch_schemes import evaluate_scheme
        from repro.reorg.delay_slots import BranchScheme

        rows = _quick_rows("branch-schemes")
        assert len(rows) == 6
        for params, row in rows:
            live = evaluate_scheme(
                BranchScheme(params["slots"], params["squash"],
                             squash_if_go=params["squash_if_go"]),
                params["names"])
            assert row == {"slots": params["slots"],
                           "squash": params["squash"],
                           "cycles_per_branch": live.cycles_per_branch,
                           "executions": live.executions,
                           "cycles": live.cycles}

    def test_icache_sweep_row_matches_live_point(self):
        from repro.icache.explorer import evaluate
        from repro.traces.synthetic import paper_regime_program

        rows = _quick_rows("icache-organizations")
        lengths = {params["trace_length"] for params, _ in rows}
        assert len(lengths) == 1
        trace = list(paper_regime_program().instruction_trace(lengths.pop()))
        for params, row in rows:
            geometry = {"fetchback": 2, "miss_cycles": 2, **params}
            del geometry["trace_length"]
            live = evaluate(IcacheConfig(**geometry), trace)
            assert row == dict(geometry, miss_ratio=live.miss_ratio,
                               fetch_cost=live.fetch_cost)
        # the fetch-back study rides along at the paper organization
        assert ({params.get("fetchback") for params, _ in rows}
                >= {1, 2, 3, 4})

    def test_ecache_sweep_row_matches_live_point(self):
        from repro.traces.synthetic import SyntheticProgram

        rows = _quick_rows("ecache-sweep")
        assert len(rows) == 2
        for params, row in rows:
            program = SyntheticProgram(data_words=400_000, seed=0xBADCAFE)
            cache = Ecache(EcacheConfig(size_words=params["size_words"]))
            stall = 0
            count = 0
            for address, is_store in program.data_trace(
                    params["references"]):
                stall += (cache.write(address, True) if is_store
                          else cache.read(address, True))
                count += 1
            assert row == {"size_words": params["size_words"],
                           "miss_rate": cache.stats.miss_rate,
                           "stall_per_ref": stall / count}


class TestSharedTraceStore:
    def test_cold_store_under_concurrent_workers(self, trace_store_root,
                                                 monkeypatch):
        # Two workers race to capture the same traces into an empty
        # store; an in-process rerun must then be served entirely from
        # what they stored, with the same values.
        from repro.harness.experiments import sweep_jobs
        from repro.harness.runner import Runner, merge_values

        jobs = [job for sweep in REPLAYED_SWEEPS
                for job in sweep_jobs(sweep, quick=True)]
        cold = Runner(max_workers=2).run(jobs)
        assert [r.status for r in cold] == ["ok"] * len(jobs)
        entries = {path.name: path.stat().st_mtime_ns
                   for path in trace_store_root.iterdir()}
        assert any(name.endswith(".npz") for name in entries)
        assert not [name for name in entries
                    if name.endswith((".lock", ".tmp"))]

        stores = []
        init = TraceStore.__init__

        def tracked_init(self, root=None):
            init(self, root)
            stores.append(self)

        monkeypatch.setattr(TraceStore, "__init__", tracked_init)
        warm = Runner().run(jobs, parallel=False)
        assert merge_values(warm) == merge_values(cold)
        assert sum(store.hits for store in stores) > 0
        assert sum(store.misses for store in stores) == 0
        assert sum(store.integrity_failures for store in stores) == 0
        assert {path.name: path.stat().st_mtime_ns
                for path in trace_store_root.iterdir()} == entries
