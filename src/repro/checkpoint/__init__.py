"""Crash-resilient checkpoint/restore for long simulations.

The paper's methodology lives on multi-million-reference traces; a
billion-cycle study is only practical if a crashed worker resumes from
its last snapshot instead of restarting cold.  This package provides:

* :mod:`repro.checkpoint.state` -- bit-exact capture/restore of a
  :class:`~repro.core.processor.Machine` or
  :class:`~repro.multi.system.MultiMachine` at a drained, quiescent
  cycle boundary, plus the named error family
  (:class:`CheckpointError` and friends);
* :mod:`repro.checkpoint.store` -- :class:`SnapshotStore`: atomic,
  fsync-durable, sha256-sidecar-verified generation ladders under
  ``.trace_cache/checkpoints/``;
* :mod:`repro.checkpoint.run` -- :func:`run_with_checkpoints`: the
  auto-checkpoint watchdog (every K cycles / T seconds) with
  resume-from-latest-valid-generation;
* :mod:`repro.checkpoint.equivalence` -- the one equivalence contract:
  :func:`signature` (everything observable about a finished machine),
  :func:`mismatches`, and :func:`restore_midrun` (snapshot mid-run,
  JSON round trip, restore into a fresh machine, finish), shared by the
  fuzz oracle, the checkpoint campaign, the devices gate and
  ``repro bench``;
* :mod:`repro.checkpoint.campaign` -- the standing gates: restore
  equivalence (snapshot mid-run + restore + finish must be
  bit-identical to a straight run), chaos resume (SIGKILLed workers
  resume and merge byte-identical), and snapshot-corruption rejection.
"""

from repro.checkpoint.equivalence import (
    mismatches,
    restore_midrun,
    signature,
)
from repro.checkpoint.run import (
    CheckpointStats,
    resume_state,
    run_with_checkpoints,
)
from repro.checkpoint.state import (
    FORMAT,
    CheckpointError,
    QuiescenceTimeout,
    SnapshotConfigError,
    SnapshotFormatError,
    SnapshotIntegrityError,
    drain_machine,
    drain_multi,
    machine_state,
    multi_state,
    restore_machine,
    restore_multi,
)
from repro.checkpoint.store import SnapshotStore

__all__ = [
    "FORMAT",
    "CheckpointError",
    "CheckpointStats",
    "QuiescenceTimeout",
    "SnapshotConfigError",
    "SnapshotFormatError",
    "SnapshotIntegrityError",
    "SnapshotStore",
    "drain_machine",
    "drain_multi",
    "machine_state",
    "mismatches",
    "multi_state",
    "restore_machine",
    "restore_midrun",
    "restore_multi",
    "resume_state",
    "run_with_checkpoints",
    "signature",
]
