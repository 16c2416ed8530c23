"""Tests for the binary trace store and the array-backed collector.

Covers the capture-once/replay-many substrate: ``.npz`` round-trips,
content-addressed key invalidation, the collector's memory accounting and
spill-to-disk path, and the 32-bit masking on bulk memory image loads.
"""

import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core  # noqa: F401  -- resolves the core<->ecache import cycle
import repro.store
from repro.ecache.memory import Memory, MemoryFault
from repro.traces.capture import TraceCollector
import repro.traces.store as trace_store
from repro.traces.store import (CapturedTrace, TraceStore, canonical_json,
                                descriptor_key)


class TestCapturedTrace:
    def test_npz_round_trip(self, tmp_path):
        trace = CapturedTrace(
            arrays={"addresses": np.arange(100, dtype=np.int64),
                    "is_store": np.array([0, 1, 1], dtype=np.int8)},
            meta={"kind": "test", "length": 100, "nested": {"a": [1, 2]}})
        path = tmp_path / "trace.npz"
        trace.save(path)
        loaded = CapturedTrace.load(path)
        assert loaded.meta == trace.meta
        assert set(loaded.arrays) == {"addresses", "is_store"}
        for name in trace.arrays:
            np.testing.assert_array_equal(loaded[name], trace[name])
            assert loaded[name].dtype == trace[name].dtype

    def test_save_is_atomic_on_failure(self, tmp_path):
        # nothing but the final .npz may remain after a successful save
        trace = CapturedTrace(arrays={"a": np.zeros(4, dtype=np.int64)})
        path = tmp_path / "sub" / "trace.npz"
        trace.save(path)
        assert [p.name for p in path.parent.iterdir()] == ["trace.npz"]

    def test_nbytes_sums_arrays(self):
        trace = CapturedTrace(
            arrays={"a": np.zeros(10, dtype=np.int64),
                    "b": np.zeros(10, dtype=np.int8)})
        assert trace.nbytes() == 10 * 8 + 10


_scalars = (st.integers(min_value=-2**31, max_value=2**31) | st.booleans()
            | st.text(max_size=8) | st.floats(allow_nan=False,
                                              allow_infinity=False))
_params = st.dictionaries(
    st.text(min_size=1, max_size=8), _scalars | st.lists(_scalars,
                                                         max_size=4),
    max_size=6)


class TestDescriptorKey:
    """The content address is semantic, not syntactic."""

    @settings(max_examples=50, deadline=None)
    @given(params=_params)
    def test_descriptor_key_ignores_dict_insertion_order(self, params):
        reversed_params = {key: params[key] for key in reversed(list(params))}
        assert descriptor_key(params) == descriptor_key(reversed_params)

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(_scalars, min_size=1, max_size=5))
    def test_tuples_and_lists_are_interchangeable(self, values):
        assert descriptor_key({"points": tuple(values)}) == \
            descriptor_key({"points": list(values)})

    @settings(max_examples=50, deadline=None)
    @given(params=_params, key=st.text(min_size=1, max_size=8),
           bump=st.integers(min_value=1, max_value=99))
    def test_any_value_change_changes_the_key(self, params, key, bump):
        changed = dict(params)
        changed[key] = (changed.get(key, 0) + bump
                        if isinstance(changed.get(key, 0), int) else bump)
        assert descriptor_key(params) != descriptor_key(changed)

    def test_canonical_json_is_key_sorted_and_minimal(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_key_is_order_independent(self):
        assert (descriptor_key({"a": 1, "b": "x"})
                == descriptor_key({"b": "x", "a": 1}))

    def test_key_changes_with_any_field(self):
        base = {"kind": "synthetic-fetch", "length": 1000, "seed": 7}
        key = descriptor_key(base)
        for field, value in (("length", 1001), ("seed", 8),
                             ("kind", "synthetic-data")):
            assert descriptor_key(dict(base, **{field: value})) != key

    def test_key_is_stable_and_filename_safe(self):
        key = descriptor_key({"kind": "x"})
        assert key == descriptor_key({"kind": "x"})
        assert len(key) == 24
        assert all(c in "0123456789abcdef" for c in key)

    @pytest.mark.parametrize("module", [
        "lang/codegen.py",              # the compiler
        "reorg/delay_slots.py",         # the branch-slot reorganizer
        "core/pipeline.py",             # the profiler behind branch counts
        "analysis/common.py",           # profiled_result / plans
        "traces/synthetic.py",          # instruction_trace / data_trace
    ])
    def test_editing_capture_code_changes_the_key(self, tmp_path, module):
        # A warm store must not replay captures made by older code: the
        # key covers the package source, not just the descriptor.
        package = tmp_path / "repro"
        shutil.copytree(trace_store.PACKAGE_ROOT, package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        descriptor = {"kind": "synthetic-fetch", "length": 1000}
        real_key = descriptor_key(descriptor)
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(trace_store, "PACKAGE_ROOT", package)
                trace_store.code_version.cache_clear()
                copied_key = descriptor_key(descriptor)
                source = package / module
                source.write_text(source.read_text() + "\n# edited\n")
                trace_store.code_version.cache_clear()
                edited_key = descriptor_key(descriptor)
        finally:
            trace_store.code_version.cache_clear()
        assert copied_key == real_key       # same source, same key
        assert edited_key != real_key
        assert descriptor_key(descriptor) == real_key


class TestTraceStore:
    def _descriptor(self):
        return {"kind": "unit-test", "n": 5}

    def _capture(self, calls):
        def capture():
            calls.append(1)
            return CapturedTrace(arrays={"a": np.arange(5, dtype=np.int64)},
                                 meta={"kind": "unit-test"})
        return capture

    def test_miss_captures_then_hit_skips(self, tmp_path):
        store = TraceStore(root=tmp_path)
        calls = []
        trace = store.get_or_capture(self._descriptor(), self._capture(calls))
        assert calls == [1] and (store.hits, store.misses) == (0, 1)
        trace2 = store.get_or_capture(self._descriptor(),
                                      self._capture(calls))
        assert calls == [1] and (store.hits, store.misses) == (1, 1)
        np.testing.assert_array_equal(trace["a"], trace2["a"])

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = TraceStore(root=tmp_path)
        calls = []
        store.get_or_capture(self._descriptor(), self._capture(calls))
        store.path_for(self._descriptor()).write_bytes(b"not an npz")
        assert store.get(self._descriptor()) is None
        store.get_or_capture(self._descriptor(), self._capture(calls))
        assert calls == [1, 1] and store.hits == 0
        # the re-capture repaired the entry
        assert store.get(self._descriptor()) is not None

    def test_different_descriptors_do_not_collide(self, tmp_path):
        store = TraceStore(root=tmp_path)
        store.put({"n": 1},
                  CapturedTrace(arrays={"a": np.array([1], dtype=np.int64)}))
        store.put({"n": 2},
                  CapturedTrace(arrays={"a": np.array([2], dtype=np.int64)}))
        assert store.get({"n": 1})["a"][0] == 1
        assert store.get({"n": 2})["a"][0] == 2


class TestTraceStoreIntegrity:
    def _descriptor(self):
        return {"kind": "integrity-test", "n": 3}

    def _put_one(self, store):
        store.put(self._descriptor(),
                  CapturedTrace(arrays={"a": np.arange(3, dtype=np.int64)}))

    def test_put_writes_sha256_sidecar(self, tmp_path):
        import hashlib

        store = TraceStore(root=tmp_path)
        self._put_one(store)
        payload = store.path_for(self._descriptor()).read_bytes()
        sidecar = store.digest_path_for(self._descriptor())
        assert sidecar.exists()
        assert sidecar.read_text().strip() == (
            hashlib.sha256(payload).hexdigest())

    def test_truncated_payload_is_a_counted_miss(self, tmp_path, caplog):
        store = TraceStore(root=tmp_path)
        self._put_one(store)
        path = store.path_for(self._descriptor())
        path.write_bytes(path.read_bytes()[:-16])  # truncate
        with caplog.at_level("WARNING", logger="repro.traces.store"):
            assert store.get(self._descriptor()) is None
        assert store.integrity_failures == 1
        assert store.misses == 1
        assert any("sha256 mismatch" in r.message for r in caplog.records)

    def test_missing_sidecar_is_a_counted_miss(self, tmp_path, caplog):
        store = TraceStore(root=tmp_path)
        self._put_one(store)
        store.digest_path_for(self._descriptor()).unlink()
        with caplog.at_level("WARNING", logger="repro.traces.store"):
            assert store.get(self._descriptor()) is None
        assert store.integrity_failures == 1
        assert any("no sha256 sidecar" in r.message for r in caplog.records)

    def test_counters_track_hits_and_misses(self, tmp_path):
        store = TraceStore(root=tmp_path)
        assert store.get(self._descriptor()) is None   # cold miss
        self._put_one(store)
        assert store.get(self._descriptor()) is not None
        assert (store.hits, store.misses, store.integrity_failures) \
            == (1, 1, 0)

    def test_recapture_repairs_a_corrupt_entry(self, tmp_path):
        store = TraceStore(root=tmp_path)
        self._put_one(store)
        store.path_for(self._descriptor()).write_bytes(b"garbage")
        store.get_or_capture(
            self._descriptor(),
            lambda: CapturedTrace(
                arrays={"a": np.arange(3, dtype=np.int64)}))
        assert (store.hits, store.integrity_failures) == (0, 1)
        assert store.get(self._descriptor()) is not None

    def test_reader_waits_for_a_put_in_progress(self, tmp_path):
        # The payload is in place but its writer still holds the lock
        # and has not written the sidecar yet: the reader must wait for
        # the writer and then read the finished entry, not count it as
        # corrupt.
        import threading
        import time

        from repro.store import pid_lock

        store = TraceStore(root=tmp_path)
        self._put_one(store)
        path = store.path_for(self._descriptor())
        sidecar = store.digest_path_for(self._descriptor())
        digest = sidecar.read_bytes()
        sidecar.unlink()
        locked = threading.Event()

        def writer():
            with pid_lock(path.with_suffix(".lock")):
                locked.set()
                time.sleep(0.3)
                sidecar.write_bytes(digest)

        thread = threading.Thread(target=writer)
        thread.start()
        locked.wait()
        trace = store.get(self._descriptor())
        thread.join()
        assert trace is not None
        assert (store.hits, store.misses, store.integrity_failures) \
            == (1, 0, 0)

    def test_put_releases_its_lockfile(self, tmp_path):
        store = TraceStore(root=tmp_path)
        self._put_one(store)
        leftovers = [p.name for p in tmp_path.iterdir()]
        assert not any(name.endswith(".lock") for name in leftovers)
        assert not any(".tmp" in name for name in leftovers)

    def test_kill9_mid_put_leaves_recoverable_store(self, tmp_path,
                                                    monkeypatch):
        # SIGKILL a writer between the payload write and the rename: the
        # next producer must break the dead lock, rewrite the entry, and
        # leave no stale debris behind.
        import multiprocessing
        import os
        import signal

        descriptor = self._descriptor()

        def doomed_put():
            store = TraceStore(root=tmp_path)
            original = os.replace

            def die(*args, **kwargs):
                os.kill(os.getpid(), signal.SIGKILL)
                return original(*args, **kwargs)  # pragma: no cover

            os.replace = die
            store.put(descriptor, CapturedTrace(
                arrays={"a": np.arange(3, dtype=np.int64)}))

        worker = multiprocessing.Process(target=doomed_put)
        worker.start()
        worker.join()
        assert worker.exitcode == -signal.SIGKILL
        store = TraceStore(root=tmp_path)
        lock = store.path_for(descriptor).with_suffix(".lock")
        assert lock.exists()                     # the crash orphaned it
        assert store.get(descriptor) is None     # no entry, not garbage
        self._put_one(store)                     # dead lock broken, rewritten
        assert store.get(descriptor) is not None
        assert not lock.exists()
        monkeypatch.setattr(repro.store, "TMP_STALE_SECONDS", -1.0)
        assert store.get({"kind": "other"}) is None  # miss sweeps debris
        assert not any(".tmp" in p.name for p in tmp_path.iterdir())


class TestCollectorMemory:
    def _feed(self, collector, events):
        for i in range(events):
            collector.on_fetch(i)
            collector.on_data(i, i * 3, i % 2 == 0)
            collector.on_ecache(i % 3, i * 3)

    def test_approx_bytes_grows_with_capture(self):
        collector = TraceCollector(ecache=True)
        before = collector.approx_bytes()
        self._feed(collector, 1000)
        after = collector.approx_bytes()
        # 8B fetch + 8B+1B data + 1B+8B ecache per event
        assert after - before == 1000 * 26

    def test_spill_keeps_streams_identical(self):
        reference = TraceCollector(ecache=True)
        spilling = TraceCollector(ecache=True, max_bytes=4096)
        events = 3 * 4096  # several spill checks past the cap
        self._feed(reference, events)
        self._feed(spilling, events)
        assert spilling._spill_dir is not None  # the cap actually tripped
        np.testing.assert_array_equal(spilling.fetch_array(),
                                      reference.fetch_array())
        for got, want in zip(spilling.data_arrays(),
                             reference.data_arrays()):
            np.testing.assert_array_equal(got, want)
        for got, want in zip(spilling.ecache_arrays(),
                             reference.ecache_arrays()):
            np.testing.assert_array_equal(got, want)
        # accounting still sees the spilled bytes
        assert spilling.approx_bytes() == reference.approx_bytes()

    def test_spilled_collector_keeps_appending(self):
        collector = TraceCollector(ecache=True, max_bytes=1024)
        self._feed(collector, 4096)
        self._feed(collector, 100)  # appends after a spill must not raise
        assert len(collector.fetch_array()) == 4196


class TestMemoryLoadImage:
    def test_values_are_masked_to_32_bits(self):
        memory = Memory(64)
        memory.load_image({0: 1 << 35 | 7, 1: -1 & 0xFFFFFFFFFF})
        assert memory.read(0) == 7
        assert memory.read(1) == 0xFFFFFFFF

    def test_out_of_range_image_loads_nothing(self):
        memory = Memory(16)
        with pytest.raises(MemoryFault):
            memory.load_image({0: 1, 99: 2})
        assert len(memory) == 0  # bounds-checked before any word lands
