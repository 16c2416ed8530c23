"""Durable, generation-laddered snapshot storage.

Snapshots live next to the trace cache, one directory per run id::

    .trace_cache/checkpoints/<run_id>/gen-0000000000012345.json
    .trace_cache/checkpoints/<run_id>/gen-0000000000012345.json.sha256

Every file goes through :mod:`repro.store`: the payload and then its
sha256 sidecar are written atomically and durably (so a crash between
the two leaves a data file without a sidecar, which
:meth:`SnapshotStore.load` rejects by name), and writers serialize on
the run directory's pid lockfile.

Reads are validating and never trust a single generation: ``load``
raises :class:`SnapshotIntegrityError` for truncated/corrupted bytes and
:class:`SnapshotFormatError` for unknown versions, and ``load_latest``
walks the generation ladder newest-first, skipping (and counting) every
invalid generation until one verifies -- the recovery path a crashed or
chaos-killed run resumes through.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
from typing import Any, Dict, List, Optional, Tuple

from repro.checkpoint.state import (
    FORMAT,
    SnapshotFormatError,
    SnapshotIntegrityError,
)
from repro.store import (
    REPO_ROOT,
    get_verified,
    pid_lock,
    put_verified,
    sidecar_path,
)

DEFAULT_ROOT = REPO_ROOT / ".trace_cache" / "checkpoints"


class SnapshotStore:
    """Atomic, sha-verified, generation-laddered snapshot files."""

    def __init__(self, root: Optional[pathlib.Path] = None):
        self.root = pathlib.Path(root) if root is not None else DEFAULT_ROOT
        #: invalid generations skipped by :meth:`load_latest`
        self.fallbacks = 0
        #: generations rejected by :meth:`load` (integrity or format)
        self.rejects = 0

    # ---------------------------------------------------------- layout
    def run_dir(self, run_id: str) -> pathlib.Path:
        """Directory holding one run's generation ladder."""
        safe = "".join(ch if (ch.isalnum() or ch in "-_.") else "_"
                       for ch in str(run_id))
        return self.root / safe

    def generations(self, run_id: str) -> List[pathlib.Path]:
        """This run's snapshot files, oldest first."""
        run_dir = self.run_dir(run_id)
        if not run_dir.is_dir():
            return []
        return sorted(path for path in run_dir.glob("gen-*.json"))

    # ------------------------------------------------------------ save
    def save(self, run_id: str, state: Dict[str, Any]) -> pathlib.Path:
        """Commit one generation; returns the snapshot path.

        The generation index is the snapshot's cycle count, so the
        ladder sorts by progress and re-saving the same boundary is
        idempotent.
        """
        cycles = state_cycles(state)
        run_dir = self.run_dir(run_id)
        path = run_dir / f"gen-{cycles:016d}.json"
        data = json.dumps(state, sort_keys=True).encode("utf-8")
        with pid_lock(run_dir / ".lock"):
            put_verified(path, data)
        return path

    # ------------------------------------------------------------ load
    def load(self, path: pathlib.Path) -> Dict[str, Any]:
        """Read and fully validate one generation.

        Raises :class:`SnapshotIntegrityError` (missing file/sidecar,
        digest mismatch, undecodable JSON) or
        :class:`SnapshotFormatError` (unknown format version).
        """
        path = pathlib.Path(path)
        try:
            data = get_verified(path, SnapshotIntegrityError)
        except SnapshotIntegrityError:
            self.rejects += 1
            raise
        try:
            state = json.loads(data)
        except ValueError as exc:
            self.rejects += 1
            raise SnapshotIntegrityError(
                f"snapshot {path} is not valid JSON: {exc}") from exc
        if not isinstance(state, dict) or state.get("format") != FORMAT:
            self.rejects += 1
            raise SnapshotFormatError(
                f"snapshot {path} has format "
                f"{state.get('format') if isinstance(state, dict) else '?'!r},"
                f" supported format is {FORMAT}")
        return state

    def load_latest(self, run_id: str) -> Tuple[Optional[Dict[str, Any]],
                                                Optional[pathlib.Path]]:
        """Newest generation that verifies, or ``(None, None)``.

        Invalid generations (corrupted, truncated, wrong format) are
        skipped and counted in :attr:`fallbacks` -- the recovery ladder:
        a damaged newest generation silently falls back to the previous
        good one instead of failing the resume.
        """
        for path in reversed(self.generations(run_id)):
            try:
                return self.load(path), path
            except (SnapshotIntegrityError, SnapshotFormatError):
                self.fallbacks += 1
        return None, None

    # ----------------------------------------------------- maintenance
    def prune(self, run_id: str, keep: int = 2) -> int:
        """Drop all but the newest ``keep`` generations; returns the
        number removed.  Two generations are kept by default so one
        corrupted write still leaves a fallback."""
        removed = 0
        generations = self.generations(run_id)
        for path in generations[:-keep] if keep else generations:
            for victim in (path, sidecar_path(path)):
                try:
                    os.unlink(victim)
                    removed += 1
                except FileNotFoundError:
                    pass
        return removed

    def delete_run(self, run_id: str) -> None:
        """Remove a run's entire ladder (end-of-campaign cleanup)."""
        shutil.rmtree(self.run_dir(run_id), ignore_errors=True)


def state_cycles(state: Dict[str, Any]) -> int:
    """The cycle coordinate a snapshot was taken at (machine or multi)."""
    if state.get("kind") == "multi":
        return int(state["cycles"])
    return int(state["pipeline"]["stats"]["cycles"])


__all__ = [
    "DEFAULT_ROOT",
    "SnapshotStore",
    "state_cycles",
]
