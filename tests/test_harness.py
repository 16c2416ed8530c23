"""Tests for the parallel experiment harness.

Covers the :class:`repro.harness.runner.Runner` contract:

* serial and parallel runs of the same jobs merge to identical results,
  in submission order, regardless of completion order;
* per-job timeouts terminate the worker and record ``"timeout"``;
* the full status taxonomy -- ``"ok"``, ``"error"`` (in-worker exception,
  remote traceback in ``error``, exception type in ``error_kind``, no
  retry), ``"timeout"``, ``"crashed"`` (worker died without reporting,
  retried with backoff until exhausted), ``"retried-ok"`` (ok after at
  least one crash retry);
* chaos mode: :class:`ChaosMonkey` kills a seeded subset of first-attempt
  workers mid-job, and the retry/merge path delivers results identical to
  a serial run;
* the sweep grids are well-formed (unique ids, resolvable entry points).

The job helpers below must be module-level so the ``"module:function"``
specs resolve inside worker processes.
"""

import os
import time

import pytest

from repro.harness.experiments import (EXPERIMENT_SWEEPS, default_jobs,
                                       sweep_jobs)
from repro.harness.runner import (BACKOFF_BASE, CHAOS_EXIT_CODE, ChaosMonkey,
                                  Job, JobResult, Runner, merge_values,
                                  resolve)

HERE = "tests.test_harness"


# ----------------------------------------------------------- job helpers
def _square(x):
    return x * x


def _sleep_then_return(seconds, value):
    time.sleep(seconds)
    return value


def _raise(message):
    raise RuntimeError(message)


def _crash_once(marker):
    """Die hard (no exception, no pipe report) on the first attempt."""
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os._exit(17)
    return "recovered"


def _always_crash():
    os._exit(23)


def _squares(count):
    return [Job(id=f"sq/{i}", fn=f"{HERE}:_square", params={"x": i})
            for i in range(count)]


# ------------------------------------------------------------ scheduling
class TestRunnerScheduling:
    def test_serial_matches_parallel(self):
        jobs = _squares(8)
        runner = Runner(max_workers=4)
        serial = runner.run(jobs, parallel=False)
        parallel = runner.run(jobs, parallel=True)
        assert merge_values(serial) == merge_values(parallel)
        assert [r.status for r in parallel] == ["ok"] * len(jobs)

    def test_results_come_back_in_submission_order(self):
        # Reverse-sorted sleeps: completion order is the opposite of
        # submission order, the merge must restore the latter.
        delays = [0.30, 0.15, 0.0]
        jobs = [Job(id=f"sleep/{i}", fn=f"{HERE}:_sleep_then_return",
                    params={"seconds": s, "value": i})
                for i, s in enumerate(delays)]
        results = Runner(max_workers=len(jobs)).run(jobs)
        assert [r.job_id for r in results] == [j.id for j in jobs]
        assert [r.value for r in results] == [0, 1, 2]

    def test_more_jobs_than_workers(self):
        jobs = _squares(9)
        results = Runner(max_workers=2).run(jobs)
        assert merge_values(results) == {f"sq/{i}": i * i for i in range(9)}

    def test_duplicate_ids_rejected(self):
        jobs = [Job(id="dup", fn=f"{HERE}:_square", params={"x": 1}),
                Job(id="dup", fn=f"{HERE}:_square", params={"x": 2})]
        with pytest.raises(ValueError, match="unique"):
            Runner(max_workers=2).run(jobs)

    def test_resolve_rejects_malformed_spec(self):
        with pytest.raises(ValueError, match="module:function"):
            resolve("no_colon_here")


# --------------------------------------------------------- failure modes
class TestFailureModes:
    def test_timeout_kills_the_worker(self):
        jobs = [Job(id="fast", fn=f"{HERE}:_square", params={"x": 3}),
                Job(id="stuck", fn=f"{HERE}:_sleep_then_return",
                    params={"seconds": 30.0, "value": None}, timeout=0.4)]
        started = time.monotonic()
        results = Runner(max_workers=2).run(jobs)
        assert time.monotonic() - started < 10.0
        by_id = {r.job_id: r for r in results}
        assert by_id["fast"].status == "ok" and by_id["fast"].value == 9
        assert by_id["stuck"].status == "timeout"
        assert "0.4" in by_id["stuck"].error
        assert not by_id["stuck"].ok

    def test_crash_is_retried_once(self, tmp_path):
        marker = str(tmp_path / "crashed-once")
        jobs = [Job(id="flaky", fn=f"{HERE}:_crash_once",
                    params={"marker": marker})]
        (result,) = Runner(max_workers=1).run(jobs)
        assert result.status == "retried-ok"
        assert result.ok
        assert result.value == "recovered"
        assert result.attempts == 2

    def test_second_crash_is_final(self):
        jobs = [Job(id="doomed", fn=f"{HERE}:_always_crash")]
        (result,) = Runner(max_workers=1).run(jobs)
        assert result.status == "crashed"
        assert result.attempts == 2
        assert result.error_kind == "worker-died"
        assert "exitcode" in result.error

    def test_exception_is_error_without_retry(self):
        jobs = [Job(id="boom", fn=f"{HERE}:_raise",
                    params={"message": "deliberate"})]
        (result,) = Runner(max_workers=1).run(jobs)
        assert result.status == "error"
        assert result.attempts == 1
        assert result.error_kind == "RuntimeError"
        # the remote traceback travels back whole, not just the message
        assert "deliberate" in result.error
        assert "Traceback" in result.error
        assert "_raise" in result.error

    def test_serial_reports_errors_too(self):
        jobs = [Job(id="boom", fn=f"{HERE}:_raise",
                    params={"message": "deliberate"})]
        (result,) = Runner().run(jobs, parallel=False)
        assert result.status == "error"
        assert result.error_kind == "RuntimeError"
        assert "deliberate" in result.error

    def test_timeout_error_kind_and_default_timeout(self):
        # No per-job timeout: the runner default applies.
        jobs = [Job(id="stuck", fn=f"{HERE}:_sleep_then_return",
                    params={"seconds": 30.0, "value": None})]
        (result,) = Runner(max_workers=1, default_timeout=0.4).run(jobs)
        assert result.status == "timeout"
        assert result.error_kind == "timeout"

    def test_status_taxonomy_is_closed(self, tmp_path):
        # One job per terminal status, all in a single run.
        marker = str(tmp_path / "flaky-marker")
        jobs = [
            Job(id="ok", fn=f"{HERE}:_square", params={"x": 2}),
            Job(id="error", fn=f"{HERE}:_raise",
                params={"message": "boom"}),
            Job(id="timeout", fn=f"{HERE}:_sleep_then_return",
                params={"seconds": 30.0, "value": None}, timeout=0.4),
            Job(id="crashed", fn=f"{HERE}:_always_crash"),
            Job(id="retried-ok", fn=f"{HERE}:_crash_once",
                params={"marker": marker}),
        ]
        results = Runner(max_workers=2).run(jobs)
        assert {r.job_id: r.status for r in results} == {
            job.id: job.id for job in jobs}
        assert {r.job_id for r in results if r.ok} == {"ok", "retried-ok"}


# ------------------------------------------------------------- chaos mode
class TestChaosMode:
    def test_chaos_kill_is_retried_and_merge_matches_serial(self):
        # The satellite-4 contract: a chaos-killed worker (os._exit
        # mid-job, after resolve, before the call) is retried with
        # backoff, and the merged results are identical to a serial run
        # of the same jobs.
        jobs = _squares(8)
        chaos = ChaosMonkey(rate=0.5, seed=11)
        doomed = [j.id for j in jobs if chaos.dooms(j.id, attempt=1)]
        assert doomed, "seed must doom at least one job for this test"
        runner = Runner(max_workers=4, chaos=chaos)
        results = runner.run(jobs, parallel=True)
        serial = Runner(max_workers=4).run(jobs, parallel=False)
        assert merge_values(results) == merge_values(serial)
        assert [r.job_id for r in results] == [r.job_id for r in serial]
        by_id = {r.job_id: r for r in results}
        for job_id in doomed:
            assert by_id[job_id].status == "retried-ok"
            assert by_id[job_id].attempts == 2
        for job in jobs:
            if job.id not in doomed:
                assert by_id[job.id].status == "ok"

    def test_chaos_selection_is_deterministic(self):
        chaos = ChaosMonkey(rate=0.5, seed=3)
        first = [chaos.dooms(f"job/{i}", 1) for i in range(32)]
        again = [chaos.dooms(f"job/{i}", 1) for i in range(32)]
        assert first == again
        assert any(first) and not all(first)
        # only the first attempt is killed: retries always run
        assert not any(chaos.dooms(f"job/{i}", 2) for i in range(32))

    def test_chaos_exit_code_is_visible_in_final_crash(self):
        # kill_attempts=2 dooms the retry too: the job ends "crashed"
        # and the recorded exit code is the chaos sentinel.
        chaos = ChaosMonkey(rate=1.0, seed=0, kill_attempts=2)
        jobs = [Job(id="victim", fn=f"{HERE}:_square", params={"x": 1})]
        (result,) = Runner(max_workers=1, chaos=chaos).run(jobs)
        assert result.status == "crashed"
        assert str(CHAOS_EXIT_CODE) in result.error

    def test_backoff_schedule(self):
        assert BACKOFF_BASE == 0.05
        runner = Runner()
        assert runner._backoff(1) == 0.0
        assert runner._backoff(2) == pytest.approx(0.05)
        assert runner._backoff(3) == pytest.approx(0.10)
        assert runner._backoff(4) == pytest.approx(0.20)


# ------------------------------------------------------- experiment grids
class TestExperimentGrids:
    def test_grids_are_well_formed(self):
        jobs = default_jobs(quick=True, timeout=120.0)
        ids = [j.id for j in jobs]
        assert len(set(ids)) == len(ids)
        assert all(j.timeout == 120.0 for j in jobs)
        assert {j.sweep for j in jobs} == set(EXPERIMENT_SWEEPS)
        for job in jobs:
            assert callable(resolve(job.fn))

    def test_quick_grid_is_a_subset(self):
        quick = {j.id for j in default_jobs(quick=True)}
        full = {j.id for j in default_jobs(quick=False)}
        assert quick <= full
        assert len(quick) < len(full)

    def test_ecache_sweep_deterministic_across_modes(self, tmp_path,
                                                     monkeypatch):
        # A real experiment point (not a toy helper): the same sweep run
        # serially and in parallel must merge to identical physics.
        # Each mode starts from its own empty trace store, so the
        # parallel pass captures afresh instead of replaying the serial
        # pass's traces.
        jobs = [Job(id=j.id, fn=j.fn,
                    params=dict(j.params, references=20_000),
                    sweep=j.sweep)
                for j in sweep_jobs("ecache-sweep", quick=True)]
        runner = Runner(max_workers=2)
        serial = merge_values(runner.run(jobs, parallel=False))
        monkeypatch.setattr("repro.traces.store.DEFAULT_ROOT",
                            tmp_path / "parallel")
        parallel = merge_values(runner.run(jobs, parallel=True))
        assert serial == parallel
        assert all(0.0 <= row["miss_rate"] <= 1.0
                   for row in parallel.values())

    @pytest.mark.slow
    def test_full_quick_sweep_deterministic(self, tmp_path, monkeypatch):
        # The whole --quick grid, both execution modes, each from an
        # empty trace store.  Tens of seconds of simulation: opt in
        # with --run-slow.
        jobs = default_jobs(quick=True)
        runner = Runner(max_workers=2)
        serial = runner.run(jobs, parallel=False)
        monkeypatch.setattr("repro.traces.store.DEFAULT_ROOT",
                            tmp_path / "parallel")
        parallel = runner.run(jobs, parallel=True)
        assert [r.status for r in serial] == ["ok"] * len(jobs)
        assert [r.status for r in parallel] == ["ok"] * len(jobs)
        assert merge_values(serial) == merge_values(parallel)


def test_job_result_ok_property():
    assert JobResult("x", "ok").ok
    assert JobResult("x", "retried-ok").ok
    for status in ("error", "timeout", "crashed"):
        assert not JobResult("x", status).ok


# ----------------------------------------------- graceful shutdown, chaos
def _signal_parent_then_return(pid, value):
    """Interrupt the parent mid-run, then finish normally ourselves."""
    import signal

    os.kill(pid, signal.SIGINT)
    time.sleep(0.4)                  # let the parent field the signal
    return value


def _slow_value(value):
    time.sleep(0.6)
    return value


class TestGracefulShutdown:
    def test_sigint_drains_active_and_interrupts_queued(self):
        # Satellite contract: on SIGINT the in-flight job finishes and
        # is recorded normally; everything still queued is released as
        # "interrupted" instead of being abandoned mid-state.
        jobs = [Job(id="active", fn=f"{HERE}:_signal_parent_then_return",
                    params={"pid": os.getpid(), "value": 42})]
        jobs += [Job(id=f"queued/{i}", fn=f"{HERE}:_square",
                     params={"x": i}) for i in range(3)]
        runner = Runner(max_workers=1)
        results = runner.run(jobs, parallel=True)
        assert runner.interrupted
        by_id = {r.job_id: r for r in results}
        assert by_id["active"].status == "ok"
        assert by_id["active"].value == 42
        for i in range(3):
            queued = by_id[f"queued/{i}"]
            assert queued.status == "interrupted"
            assert queued.error_kind == "interrupted"
            assert not queued.ok
        # handlers were restored: a later run is not poisoned
        import signal

        assert signal.getsignal(signal.SIGINT) is not None
        follow_up = Runner(max_workers=1).run(
            [Job(id="later", fn=f"{HERE}:_square", params={"x": 3})])
        assert follow_up[0].status == "ok"

    def test_interrupted_is_not_ok(self):
        assert not JobResult("x", "interrupted").ok


class TestChaosKillAfter:
    def test_kill_after_sigkills_mid_run_and_retry_succeeds(self):
        # kill_after arms an asynchronous SIGKILL *inside* the running
        # worker -- a mid-computation crash, not a pre-call exit.  The
        # retry is never doomed and must deliver the value.
        chaos = ChaosMonkey(rate=1.0, seed=0, kill_after=0.1)
        jobs = [Job(id="victim", fn=f"{HERE}:_slow_value",
                    params={"value": 7})]
        (result,) = Runner(max_workers=1, chaos=chaos).run(jobs)
        assert result.status == "retried-ok"
        assert result.value == 7
        assert result.attempts == 2

    def test_kill_after_unset_keeps_legacy_exit_kill(self):
        chaos = ChaosMonkey(rate=1.0, seed=0, kill_attempts=2)
        jobs = [Job(id="victim", fn=f"{HERE}:_square", params={"x": 2})]
        (result,) = Runner(max_workers=1, chaos=chaos).run(jobs)
        assert result.status == "crashed"
        assert str(CHAOS_EXIT_CODE) in result.error
