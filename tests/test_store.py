"""Tests for :mod:`repro.store`, the one durable-storage primitive.

Covers the crash and lock guarantees every store builds on: a writer
SIGKILLed between write and rename leaves the old bytes, a lock whose
owner pid is dead or whose age is stale is broken, a live lock times
out, orphaned ``*.tmp`` debris is swept, and a missing, short or
mismatched entry is rejected by name.  The stores' own integration
tests (trace-store misses, the snapshot fallback ladder) live beside
the stores.
"""

import hashlib
import json
import multiprocessing
import os
import signal
import stat
import time

import pytest

from repro import store
from repro.checkpoint.state import SnapshotIntegrityError
from repro.harness.bench import write_json_atomic


def _die_at_replace(number):
    """Make the ``number``-th ``os.replace`` of this process SIGKILL it."""
    original = os.replace
    calls = []

    def replace(*args, **kwargs):
        calls.append(1)
        if len(calls) == number:
            os.kill(os.getpid(), signal.SIGKILL)
        return original(*args, **kwargs)

    os.replace = replace


def _doomed_json_write(path):
    _die_at_replace(1)
    write_json_atomic(path, {"new": True})


def _doomed_put(path, replace_number):
    _die_at_replace(replace_number)
    store.put_verified(path, b"new payload")


def _run_to_sigkill(target, *args):
    worker = multiprocessing.Process(target=target, args=args)
    worker.start()
    worker.join()
    assert worker.exitcode == -signal.SIGKILL


def _dead_pid():
    worker = multiprocessing.Process(target=int)
    worker.start()
    worker.join()                            # pid now provably dead
    return worker.pid


def _tmp_names(directory):
    return [p.name for p in directory.iterdir() if p.name.endswith(".tmp")]


class TestWriteDurable:
    def test_round_trip_creates_parents(self, tmp_path):
        target = tmp_path / "a" / "b" / "blob.bin"
        store.write_durable(target, b"\x00\x01payload")
        assert target.read_bytes() == b"\x00\x01payload"
        assert _tmp_names(target.parent) == []

    def test_failure_before_rename_preserves_target(self, tmp_path,
                                                    monkeypatch):
        target = tmp_path / "report.json"
        write_json_atomic(target, {"generation": 1})

        def boom(*args, **kwargs):
            raise OSError("disk on fire")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError, match="disk on fire"):
            write_json_atomic(target, {"generation": 2})
        monkeypatch.undo()
        assert json.loads(target.read_text()) == {"generation": 1}
        assert _tmp_names(tmp_path) == []

    def test_kill9_between_write_and_rename_preserves_target(self,
                                                             tmp_path):
        # the hard variant: no Python cleanup runs at all
        target = tmp_path / "report.json"
        write_json_atomic(target, {"old": True})
        _run_to_sigkill(_doomed_json_write, target)
        assert json.loads(target.read_text()) == {"old": True}
        # debris is a .tmp that can never shadow the real file, and a
        # clean write simply replaces the target
        assert len(_tmp_names(tmp_path)) == 1
        write_json_atomic(target, {"new": True})
        assert json.loads(target.read_text()) == {"new": True}

    def test_refused_directory_fsync_propagates(self, tmp_path,
                                                monkeypatch):
        # a filesystem that cannot make the rename durable fails the
        # write instead of silently downgrading it
        real_fsync = os.fsync

        def fsync(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                raise OSError("directory fsync refused")
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        with pytest.raises(OSError, match="directory fsync refused"):
            store.write_durable(tmp_path / "x.bin", b"x")


class TestVerified:
    def test_put_writes_payload_then_sidecar(self, tmp_path, monkeypatch):
        order = []
        real = store.write_durable
        monkeypatch.setattr(store, "write_durable",
                            lambda path, data: (order.append(path.name),
                                                real(path, data)))
        path = tmp_path / "entry.bin"
        store.put_verified(path, b"payload")
        assert order == ["entry.bin", "entry.bin.sha256"]
        assert store.sidecar_path(path).read_text() == (
            hashlib.sha256(b"payload").hexdigest() + "\n")
        assert store.get_verified(path) == b"payload"

    @pytest.mark.parametrize("damage", [
        "missing-payload", "missing-sidecar", "truncated", "flipped-byte",
        "empty-sidecar"])
    @pytest.mark.parametrize("error", [store.IntegrityError,
                                       SnapshotIntegrityError])
    def test_damaged_entry_is_rejected_by_name(self, tmp_path, damage,
                                               error):
        path = tmp_path / "entry.bin"
        store.put_verified(path, b"0123456789abcdef")
        sidecar = store.sidecar_path(path)
        if damage == "missing-payload":
            path.unlink()
        elif damage == "missing-sidecar":
            sidecar.unlink()
        elif damage == "truncated":
            path.write_bytes(path.read_bytes()[:-4])
        elif damage == "flipped-byte":
            data = bytearray(path.read_bytes())
            data[3] ^= 0x01
            path.write_bytes(bytes(data))
        else:
            sidecar.write_text("")
        with pytest.raises(error) as raised:
            store.get_verified(path, error)
        assert isinstance(raised.value, store.IntegrityError)

    @pytest.mark.parametrize("replace_number,survivor", [
        (1, b"old payload"),   # killed before the payload lands
        (2, None),             # killed between payload and sidecar
    ])
    def test_kill9_mid_put(self, tmp_path, replace_number, survivor):
        path = tmp_path / "entry.bin"
        store.put_verified(path, b"old payload")
        _run_to_sigkill(_doomed_put, path, replace_number)
        if survivor is None:
            with pytest.raises(store.IntegrityError, match="sha256"):
                store.get_verified(path)
        else:
            assert store.get_verified(path) == survivor
        store.put_verified(path, b"new payload")
        assert store.get_verified(path) == b"new payload"


class TestPidLock:
    def test_lock_is_released_even_on_error(self, tmp_path):
        lock = tmp_path / "sub" / "entry.lock"
        with pytest.raises(RuntimeError):
            with store.pid_lock(lock):
                assert lock.read_text() == str(os.getpid())
                raise RuntimeError("writer failed")
        assert not lock.exists()

    def test_dead_pid_lock_is_broken_at_once(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store, "LOCK_TIMEOUT_SECONDS", 2.0)
        lock = tmp_path / "entry.lock"
        lock.write_text(str(_dead_pid()))    # fresh mtime, dead pid
        start = time.monotonic()
        with store.pid_lock(lock):           # no wait for the age-out
            assert lock.read_text() == str(os.getpid())
        assert time.monotonic() - start < 1.0
        assert not lock.exists()

    def test_stale_lock_is_broken(self, tmp_path):
        lock = tmp_path / "entry.lock"
        lock.write_text(str(os.getpid()))    # live pid, but ancient
        old = time.time() - store.LOCK_STALE_SECONDS - 10
        os.utime(lock, (old, old))
        with store.pid_lock(lock):           # must not time out
            pass
        assert not lock.exists()

    @pytest.mark.parametrize("holder", ["live-pid", "no-pid-yet"])
    def test_held_lock_times_out(self, tmp_path, monkeypatch, holder):
        monkeypatch.setattr(store, "LOCK_TIMEOUT_SECONDS", 0.2)
        lock = tmp_path / "entry.lock"
        # our own (live) pid is genuinely held, and an empty lock is a
        # writer that has not stamped its pid yet: neither is breakable
        lock.write_text(str(os.getpid()) if holder == "live-pid" else "")
        with pytest.raises(TimeoutError, match="could not acquire"):
            with store.pid_lock(lock):
                pass                         # pragma: no cover
        assert lock.exists()


class TestSweep:
    def test_orphaned_tmp_is_swept_and_live_one_kept(self, tmp_path):
        old_tmp = tmp_path / "dead-writer.npz.tmp"
        old_tmp.write_bytes(b"partial")
        ancient = time.time() - store.TMP_STALE_SECONDS - 10
        os.utime(old_tmp, (ancient, ancient))
        fresh_tmp = tmp_path / "live-writer.npz.tmp"
        fresh_tmp.write_bytes(b"in flight")
        entry = tmp_path / "entry.npz"
        entry.write_bytes(b"real")
        os.utime(entry, (ancient, ancient))
        assert store.sweep_stale_tmp(tmp_path) == 1
        assert not old_tmp.exists()
        assert fresh_tmp.exists()            # live writer untouched
        assert entry.exists()                # only *.tmp is debris

    def test_missing_directory_sweeps_nothing(self, tmp_path):
        assert store.sweep_stale_tmp(tmp_path / "absent") == 0
