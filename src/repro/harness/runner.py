"""Process-parallel experiment runner.

Design:

* a :class:`Job` is a picklable spec -- a ``"module:function"`` entry
  point plus keyword params -- so any module-level function can be a
  sweep point;
* one OS process per job (experiment points run for seconds, so process
  startup is noise), results returned over a pipe;
* per-job **timeout**: the scheduler terminates the worker and records a
  ``"timeout"`` result; a runner-wide ``default_timeout`` acts as a
  watchdog for jobs that did not set their own;
* **retry-on-crash with exponential backoff**: a worker that dies
  without reporting (``os._exit``, segfault, OOM kill) is rescheduled up
  to :data:`MAX_RETRIES` times, the respawn before attempt ``n`` delayed
  by ``BACKOFF_BASE * 2**(n-2)`` seconds.  An in-worker Python exception
  is deterministic, so it is recorded as ``"error"`` without a retry;
* **deterministic merging**: results come back in submission order keyed
  by job id, regardless of completion order, so serial and parallel runs
  of the same jobs produce identical merged output;
* **chaos mode**: :class:`ChaosMonkey` deterministically ``os._exit``\\ s
  a seeded subset of first-attempt workers mid-job, so the retry/merge
  path is itself under test (the fault campaigns double as this test).

Status taxonomy (``JobResult.status``):

============== ===========================================================
``ok``         the function returned on the first attempt
``retried-ok`` the function returned after one or more crash retries
``error``      the function raised; ``error`` carries the **remote
               traceback**, ``error_kind`` the exception class name
``timeout``    the watchdog killed the worker after ``timeout`` seconds
``crashed``    the worker died on every allowed attempt without
               reporting; ``error_kind`` is ``worker-died``
``interrupted`` the run received SIGTERM/SIGINT before this job started;
               in-flight jobs are drained, queued jobs get this status
============== ===========================================================

``JobResult.ok`` is True for both ``ok`` and ``retried-ok`` -- a retried
job still produced its value.

**Graceful shutdown**: the parallel scheduler installs SIGTERM/SIGINT
handlers (main thread only) for the duration of a run.  On a signal it
stops launching new work, lets the already-running workers finish and
deliver, marks everything still queued ``"interrupted"``, and restores
the previous handlers -- so a Ctrl-C'd campaign still journals every
completed job and leaves no orphan processes or stale lockfiles behind.
Callers can test :attr:`Runner.interrupted` after ``run`` returns.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import multiprocessing
import os
import signal
import threading
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence

#: the exit code chaos kills use; distinguishable from real crashes in logs
CHAOS_EXIT_CODE = 86
#: seconds the scheduler sleeps when no worker made progress
POLL_INTERVAL = 0.02
#: crash retries per job (a retry-once-on-crash runner)
MAX_RETRIES = 1
#: first respawn delay in seconds, doubled per further attempt
BACKOFF_BASE = 0.05


@dataclasses.dataclass(frozen=True)
class Job:
    """One sweep point: ``resolve(fn)(**params)`` in a worker process."""

    id: str
    fn: str                              #: "package.module:function"
    params: Dict[str, Any] = dataclasses.field(default_factory=dict)
    timeout: Optional[float] = None      #: seconds; None = runner default
    sweep: str = ""                      #: owning sweep, for grouping


#: the statuses of a job that produced its value: :attr:`JobResult.ok`,
#: the ``bench`` exit code and the ``--bench-file`` gate all judge by it
OK_STATUSES = ("ok", "retried-ok")


@dataclasses.dataclass
class JobResult:
    """Outcome of one job, independent of where/when it ran."""

    job_id: str
    status: str     #: "ok" | "retried-ok" | "error" | "timeout" | "crashed"
    value: Any = None
    error: str = ""                      #: remote traceback / kill reason
    error_kind: str = ""                 #: exception class | "timeout" |
    #: "worker-died" -- the structured taxonomy ("" on success)
    duration: float = 0.0                #: wall seconds of the final attempt
    attempts: int = 1
    sweep: str = ""

    @property
    def ok(self) -> bool:
        """True when the job produced its value ("ok" or "retried-ok")."""
        return self.status in OK_STATUSES


@dataclasses.dataclass(frozen=True)
class ChaosMonkey:
    """Deterministic worker-killer for chaos testing the runner.

    ``rate`` of the jobs (selected by a stable hash of ``seed`` and the
    job id -- never Python's salted ``hash()``) are killed with
    ``os._exit`` *mid-job* on attempts <= ``kill_attempts``.  With
    ``kill_attempts=1`` (the default) every doomed job succeeds on its
    retry, so a chaos run must produce values identical to a serial run.

    ``kill_after`` switches the kill from "between resolve and call" to
    a genuine asynchronous mid-run SIGKILL: a doomed worker arms a
    daemon timer that ``SIGKILL``\\ s its own process ``kill_after``
    seconds into the job, exactly the power-loss-style death the
    checkpoint/resume path (see :mod:`repro.checkpoint`) must survive.
    """

    rate: float = 0.0
    seed: int = 0
    kill_attempts: int = 1
    kill_after: Optional[float] = None

    def dooms(self, job_id: str, attempt: int) -> bool:
        """Whether this (job, attempt) is selected for a chaos kill."""
        if self.rate <= 0.0 or attempt > self.kill_attempts:
            return False
        digest = hashlib.sha256(
            f"{self.seed}:{job_id}".encode()).digest()
        draw = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return draw < self.rate


def resolve(fn_spec: str) -> Callable:
    """``"package.module:function"`` -> the callable."""
    module_name, sep, fn_name = fn_spec.partition(":")
    if not sep or not fn_name:
        raise ValueError(f"job fn must be 'module:function', got {fn_spec!r}")
    return getattr(importlib.import_module(module_name), fn_name)


def _worker_main(fn_spec: str, params: Dict[str, Any], conn,
                 chaos_kill: bool,
                 kill_after: Optional[float] = None) -> None:
    """Worker process entry point: run the job, report over the pipe.

    ``chaos_kill`` kills the worker *after* the function started doing
    real work (module resolved, call under way is approximated by
    killing between resolve and call) -- the parent sees a silent death,
    exactly like a segfault or an OOM kill.  With ``kill_after`` set the
    kill is instead a delayed SIGKILL fired from a daemon timer while
    the job runs, so death can land anywhere in the computation.
    """
    # The fork inherits the parent's graceful-shutdown handlers, under
    # which SIGTERM merely sets a flag -- that would make workers immune
    # to terminate().  Shutdown is the *scheduler's* job; workers die.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    try:
        fn = resolve(fn_spec)
        if chaos_kill:
            if kill_after is None:
                os._exit(CHAOS_EXIT_CODE)
            timer = threading.Timer(
                kill_after, os.kill, args=(os.getpid(), signal.SIGKILL))
            timer.daemon = True
            timer.start()
        value = fn(**params)
        conn.send(("ok", value, "", ""))
    except BaseException as exc:
        conn.send(("error", None, traceback.format_exc(),
                   type(exc).__name__))
    finally:
        conn.close()


class _Active:
    """Bookkeeping for one in-flight worker."""

    __slots__ = ("job", "attempt", "process", "conn", "started")

    def __init__(self, job: Job, attempt: int, process, conn):
        self.job = job
        self.attempt = attempt
        self.process = process
        self.conn = conn
        self.started = time.monotonic()


class Runner:
    """Schedules jobs over worker processes (or serially in-process).

    ``max_workers`` defaults to the machine's CPU count.  ``run`` returns
    one :class:`JobResult` per job **in submission order**.
    ``default_timeout`` is the watchdog for jobs with ``timeout=None``;
    ``chaos`` is a :class:`ChaosMonkey`, for testing the crash retries.
    """

    def __init__(self, max_workers: Optional[int] = None,
                 default_timeout: Optional[float] = None,
                 chaos: Optional[ChaosMonkey] = None):
        self.max_workers = max(1, max_workers or os.cpu_count() or 1)
        self.default_timeout = default_timeout
        self.chaos = chaos or ChaosMonkey()
        #: set when SIGTERM/SIGINT arrived during the last parallel run
        self.interrupted = False
        self._context = multiprocessing.get_context()

    # ------------------------------------------------------------- serial
    def run_serial(self, jobs: Sequence[Job]) -> List[JobResult]:
        """In-process execution, in order.

        The determinism reference for the parallel path: same jobs, same
        merged results.  Timeouts are not enforced in-process (there is
        no safe way to interrupt arbitrary Python); crashes take the
        whole process down, as they would without the harness.
        """
        results = []
        for job in jobs:
            started = time.monotonic()
            try:
                value = resolve(job.fn)(**job.params)
                result = JobResult(job.id, "ok", value=value, sweep=job.sweep)
            except Exception as exc:
                result = JobResult(job.id, "error",
                                   error=traceback.format_exc(),
                                   error_kind=type(exc).__name__,
                                   sweep=job.sweep)
            result.duration = time.monotonic() - started
            results.append(result)
        return results

    # ----------------------------------------------------------- parallel
    def run(self, jobs: Sequence[Job],
            parallel: bool = True) -> List[JobResult]:
        """Run ``jobs``; results come back in submission order.

        ``parallel=False`` falls back to :meth:`run_serial` -- the
        determinism reference: both paths must merge identically.
        """
        jobs = list(jobs)
        ids = [job.id for job in jobs]
        if len(set(ids)) != len(ids):
            raise ValueError("job ids must be unique within a run")
        if not parallel:
            return self.run_serial(jobs)
        merged = self._run_parallel(jobs)
        return [merged[job.id] for job in jobs]   # deterministic merge

    def _spawn(self, job: Job, attempt: int) -> _Active:
        parent_conn, child_conn = self._context.Pipe(duplex=False)
        chaos_kill = self.chaos.dooms(job.id, attempt)
        process = self._context.Process(
            target=_worker_main,
            args=(job.fn, job.params, child_conn, chaos_kill,
                  self.chaos.kill_after),
            daemon=True)
        process.start()
        child_conn.close()   # child's end lives in the child now
        return _Active(job, attempt, process, parent_conn)

    @staticmethod
    def _backoff(attempt: int) -> float:
        """Respawn delay before ``attempt``: ``BACKOFF_BASE * 2**(n-2)``."""
        if attempt <= 1:
            return 0.0
        return BACKOFF_BASE * (2.0 ** (attempt - 2))

    def _install_signal_handlers(self) -> List[tuple]:
        """Arm graceful shutdown for the duration of a parallel run.

        Returns ``(signum, previous_handler)`` pairs to restore, or an
        empty list when not on the main thread (signal handlers can only
        be installed there; nested runners just inherit the outer one).
        """
        self.interrupted = False

        def _handler(signum, frame):
            self.interrupted = True

        installed: List[tuple] = []
        try:
            for signum in (signal.SIGTERM, signal.SIGINT):
                installed.append((signum, signal.signal(signum, _handler)))
        except ValueError:
            for signum, previous in installed:
                signal.signal(signum, previous)
            return []
        return installed

    def _run_parallel(self, jobs: List[Job]) -> Dict[str, JobResult]:
        queue: List[tuple] = [(job, 1) for job in jobs]
        queue.reverse()                      # pop() takes submission order
        #: crash retries waiting out their backoff: (eligible_at, job,
        #: attempt), respawned in eligibility order
        waiting: List[tuple] = []
        active: List[_Active] = []
        results: Dict[str, JobResult] = {}
        installed = self._install_signal_handlers()
        try:
            while queue or active or waiting:
                if self.interrupted and (queue or waiting):
                    # graceful shutdown: nothing new is launched; the
                    # in-flight workers drain and deliver normally
                    for job, _attempt in queue:
                        results[job.id] = JobResult(
                            job.id, "interrupted",
                            error="run interrupted by signal before start",
                            error_kind="interrupted", sweep=job.sweep)
                    for _eligible, job, attempt in waiting:
                        results[job.id] = JobResult(
                            job.id, "interrupted",
                            error="retry abandoned: run interrupted",
                            error_kind="interrupted", attempts=attempt - 1,
                            sweep=job.sweep)
                    queue, waiting = [], []
                if waiting:
                    now = time.monotonic()
                    due = [w for w in waiting if w[0] <= now]
                    if due:
                        waiting = [w for w in waiting if w[0] > now]
                        # due retries take priority over fresh jobs
                        for eligible_at, job, attempt in sorted(
                                due, reverse=True):
                            queue.append((job, attempt))
                while queue and len(active) < self.max_workers:
                    job, attempt = queue.pop()
                    active.append(self._spawn(job, attempt))
                made_progress = False
                for slot in list(active):
                    outcome = self._poll(slot)
                    if outcome is None:
                        continue
                    made_progress = True
                    active.remove(slot)
                    if outcome == "retry":
                        attempt = slot.attempt + 1
                        eligible = time.monotonic() + self._backoff(attempt)
                        waiting.append((eligible, slot.job, attempt))
                    else:
                        results[slot.job.id] = outcome
                if not made_progress and (active or waiting):
                    time.sleep(POLL_INTERVAL)
        finally:
            for signum, previous in installed:
                signal.signal(signum, previous)
            for slot in active:              # interrupted: no orphans
                slot.process.terminate()
                slot.process.join()
        return results

    def _effective_timeout(self, job: Job) -> Optional[float]:
        return job.timeout if job.timeout is not None else self.default_timeout

    def _poll(self, slot: _Active):
        """One scheduling decision for one worker; None = still running."""
        job = slot.job
        elapsed = time.monotonic() - slot.started
        if slot.conn.poll():
            try:
                status, value, error, error_kind = slot.conn.recv()
            except (EOFError, OSError):
                return self._crash_outcome(slot, elapsed)
            slot.process.join()
            slot.conn.close()
            if status == "ok" and slot.attempt > 1:
                status = "retried-ok"
            return JobResult(job.id, status, value=value, error=error,
                             error_kind=error_kind,
                             duration=elapsed, attempts=slot.attempt,
                             sweep=job.sweep)
        timeout = self._effective_timeout(job)
        if timeout is not None and elapsed > timeout:
            slot.process.terminate()
            slot.process.join()
            slot.conn.close()
            return JobResult(job.id, "timeout",
                             error=f"exceeded {timeout:.1f}s",
                             error_kind="timeout",
                             duration=elapsed, attempts=slot.attempt,
                             sweep=job.sweep)
        if not slot.process.is_alive():
            return self._crash_outcome(slot, elapsed)
        return None

    def _crash_outcome(self, slot: _Active, elapsed: float):
        """The worker died without delivering a result."""
        slot.process.join()
        slot.conn.close()
        if slot.attempt <= MAX_RETRIES:
            return "retry"
        job = slot.job
        return JobResult(
            job.id, "crashed",
            error=f"worker died {slot.attempt} time(s) "
                  f"(exitcode {slot.process.exitcode})",
            error_kind="worker-died",
            duration=elapsed, attempts=slot.attempt, sweep=job.sweep)


def merge_values(results: Sequence[JobResult]) -> Dict[str, Any]:
    """``{job id: value}`` for the successful results."""
    return {r.job_id: r.value for r in results if r.ok}
