"""The one durable-storage primitive behind every file the repo persists.

Campaign reports, fuzz-corpus entries, checkpoint generations and
captured traces all need the same four things, and they all get them
from here:

* :func:`write_durable` -- an atomic, crash-durable byte write: payload
  to a temp file in the target directory, ``fsync``, ``os.replace`` into
  place, then ``fsync`` of the directory so the rename itself survives a
  power cut.  A reader sees the old bytes or the new bytes, never a torn
  mix; a writer killed at any point leaves at most a ``*.tmp`` that no
  reader ever opens.  A filesystem that refuses the directory ``fsync``
  fails the write: durability is never downgraded silently.
* :func:`put_verified` / :func:`get_verified` -- payload first, its
  ``.sha256`` sidecar second, so a crash between the two leaves a
  payload without a sidecar.  Every missing, short or mismatched entry
  raises :class:`IntegrityError` (or a caller's subclass of it).
* :func:`pid_lock` -- an ``O_CREAT|O_EXCL`` lockfile stamped with the
  owner pid.  A lock whose owner is dead is broken at once, one older
  than :data:`LOCK_STALE_SECONDS` is broken too, and otherwise the
  waiter raises :class:`TimeoutError` after
  :data:`LOCK_TIMEOUT_SECONDS`.
* :func:`sweep_stale_tmp` -- removes the ``*.tmp`` debris of killed
  writers once it is older than :data:`TMP_STALE_SECONDS`.
"""

from __future__ import annotations

import contextlib
import hashlib
import logging
import os
import secrets
import time
from pathlib import Path
from typing import Iterator, Type

logger = logging.getLogger(__name__)

#: a lock older than this is presumed orphaned even when its pid cannot
#: be probed; every protected write finishes in seconds
LOCK_STALE_SECONDS = 120.0
#: how long a writer waits on a live lock before giving up
LOCK_TIMEOUT_SECONDS = 30.0
#: a ``*.tmp`` older than this belongs to a dead writer
TMP_STALE_SECONDS = 120.0


class IntegrityError(Exception):
    """A verified entry is missing, short, or fails its sha256 check."""


def sidecar_path(path: Path) -> Path:
    """The ``.sha256`` sidecar that verifies ``path``."""
    path = Path(path)
    return path.with_name(path.name + ".sha256")


def _fsync_directory(directory: Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_durable(path: Path, data: bytes) -> None:
    """Atomically and durably replace ``path`` with ``data``.

    Temp file, ``fsync``, ``os.replace``, directory ``fsync``.  The
    parent directory is created if needed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}-{secrets.token_hex(4)}.tmp")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    _fsync_directory(path.parent)


def put_verified(path: Path, data: bytes) -> None:
    """Durably write ``data`` and then its sha256 sidecar."""
    digest = hashlib.sha256(data).hexdigest()
    write_durable(path, data)
    write_durable(sidecar_path(path), (digest + "\n").encode("ascii"))


def get_verified(path: Path,
                 error: Type[IntegrityError] = IntegrityError) -> bytes:
    """Read ``path`` and check it against its sidecar.

    Raises ``error`` (an :class:`IntegrityError` subclass) when the
    payload is unreadable, the sidecar is missing, or the digests differ.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise error(f"{path} is unreadable: {exc}") from exc
    try:
        recorded = sidecar_path(path).read_text().strip()
    except OSError as exc:
        raise error(f"{path} has no sha256 sidecar "
                    "(interrupted write?)") from exc
    actual = hashlib.sha256(data).hexdigest()
    if actual != recorded:
        raise error(f"{path} fails its sha256 check: sha256 mismatch "
                    f"(recorded {recorded[:12]}..., actual {actual[:12]}...)")
    return data


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True                     # alive, owned by someone else
    except (OverflowError, ValueError):
        return False                    # not a pid any process can have
    return True


def _orphan_reason(lock: Path) -> str:
    """Why ``lock`` may be broken now, or ``""`` while it is live."""
    try:
        raw = lock.read_text().strip()
        age = time.time() - lock.stat().st_mtime
    except OSError:
        return ""                       # just released: retry shortly
    if raw.isdigit() and int(raw) > 0 and not _pid_alive(int(raw)):
        return f"owner pid {raw} is dead"
    if age > LOCK_STALE_SECONDS:
        return f"stale, {age:.0f}s old"
    return ""


@contextlib.contextmanager
def pid_lock(lock: Path) -> Iterator[Path]:
    """Hold the lockfile ``lock`` for the duration of the block.

    Raises :class:`TimeoutError` when a live owner keeps it past
    :data:`LOCK_TIMEOUT_SECONDS`.
    """
    lock = Path(lock)
    lock.parent.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + LOCK_TIMEOUT_SECONDS
    while True:
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            reason = _orphan_reason(lock)
            if reason:
                logger.warning("breaking lock %s (%s)", lock, reason)
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(lock)
                continue
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"could not acquire lock {lock} within "
                    f"{LOCK_TIMEOUT_SECONDS:.0f}s") from None
            time.sleep(0.05)
            continue
        try:
            os.write(fd, str(os.getpid()).encode("ascii"))
        finally:
            os.close(fd)
        break
    try:
        yield lock
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(lock)


def sweep_stale_tmp(directory: Path) -> int:
    """Remove ``*.tmp`` files in ``directory`` older than
    :data:`TMP_STALE_SECONDS`; returns how many were removed."""
    try:
        candidates = list(Path(directory).glob("*.tmp"))
    except OSError:
        return 0
    removed = 0
    now = time.time()
    for tmp in candidates:
        try:
            if now - tmp.stat().st_mtime > TMP_STALE_SECONDS:
                tmp.unlink()
                removed += 1
                logger.warning("removed orphaned temp file %s", tmp)
        except OSError:
            pass                        # a concurrent sweep got there first
    return removed


__all__ = [
    "IntegrityError",
    "LOCK_STALE_SECONDS",
    "LOCK_TIMEOUT_SECONDS",
    "TMP_STALE_SECONDS",
    "get_verified",
    "pid_lock",
    "put_verified",
    "sidecar_path",
    "sweep_stale_tmp",
    "write_durable",
]
