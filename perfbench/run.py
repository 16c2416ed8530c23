"""The repository benchmark: host speed of the MIPS-X model and its sweeps.

Run from the repository root::

    python3 perfbench/run.py --workload interp --seed 1 --seconds 10 --trace 0

Workloads (why each was chosen is recorded in ``BENCHMARK.json``):

* ``interp`` -- sieve, bubble, queens, intmm, towers, perm, quick and
  listops on the default ``MachineConfig``, translator off;
* ``jit`` -- the same eight programs with ``jit=True``;
* ``sweep`` -- ``default_jobs(quick=True)`` through
  ``Runner(max_workers=nproc)``;
* ``os`` -- the three kernel demos, translator on, each cut at a seeded
  mid-boot cycle, snapshotted, saved to and loaded from a
  ``SnapshotStore``, restored onto a fresh ``Machine`` and finished.

The loop is closed and batch: one process runs passes of the
workload's fixed work back to back, at least one, and stops when another
pass of the mean length would end after ``--seconds``.  ``wall_s`` is
the median pass.  Imports and compiling the programs are set-up; the
set-up is repeated in four child processes and ``setup_s`` is the
median of the five.  Every end-to-end timing is scaled to a reference
host speed by a calibration loop timed every 200k simulated cycles,
before each sweep job and after each set-up (see
``mxperf/calibrate.py``); the raw seconds are kept in the result
document.  Every op is checked against the simulated results pinned in
``perfbench/pins.json``; any mismatch fails the op and the run exits 1.

To print every end-to-end metric of every workload::

    for w in interp jit sweep os; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 25
    done

With ``--trace 0`` the result reports the end-to-end metrics.  With
``--trace 1`` untraced and traced passes alternate; the result reports
the per-layer metrics, and the spans are written as Chrome trace-event
JSON to ``.perfbench/trace-<workload>-seed<seed>.json``.  Every run also
writes its full result with a provenance block to
``.perfbench/result-<workload>-seed<seed>-trace<t>.json``.  The last
line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("interp", "jit", "sweep", "os")
#: set-ups repeated in child processes; ``setup_s`` is the median of
#: these and the run's own
EXTRA_SETUPS = 4


def parse_args(argv):
    """The command line the driver and users give."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up seconds, and exit "
                             "(the run repeats its set-up this way)")
    return parser.parse_args(argv)


def _git(*args):
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(args, argv):
    """Which code, host and command produced this result."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode("utf-8"))
        digest.update(path.read_bytes())
    sha = _git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    dirty = None
    if sha is not None:
        dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    from mxperf.workloads import nproc

    return {"git_sha": sha, "git_dirty": dirty,
            "src_sha256": digest.hexdigest(), "nproc": nproc(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "argv": ["perfbench/run.py", *argv], "seed": args.seed}


def repeat_setup(workload):
    """Set-up and calibration seconds of ``EXTRA_SETUPS`` fresh
    interpreters."""
    samples = []
    for _ in range(EXTRA_SETUPS):
        done = subprocess.run(
            [sys.executable, str(pathlib.Path(__file__).resolve()),
             "--workload", workload, "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(done.stdout.splitlines()[-1]))
    return samples


def peak_rss_mb():
    """The larger of this process's and its largest child's peak RSS."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024


def main(argv=None):
    """Set up, run passes, check, report; returns the exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no model sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from mxperf import calibrate, checks, ledger, workloads
    from mxperf.tracer import Tracer

    tracer = Tracer(args.trace == 1)
    pins = checks.load_pins()
    bench = workloads.build(args.workload, tracer, pins, OUT_DIR)
    setup = {"setup_s": time.perf_counter() - _STARTED,
             "host_s": calibrate.host_seconds()}
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    setup_samples = [setup] + repeat_setup(args.workload)
    setup_s = (statistics.median(s["setup_s"] for s in setup_samples)
               * calibrate.factor(s["host_s"] for s in setup_samples))

    rng = random.Random(args.seed)
    passes = []
    minimum = 2 if args.trace else 1
    started = time.perf_counter()
    while True:
        # a traced run alternates untraced and traced passes
        tracer.enabled = args.trace == 1 and len(passes) % 2 == 1
        passes.append(bench.run_pass(rng, f"pass{len(passes)}"))
        elapsed = time.perf_counter() - started
        # stop once another pass of the mean length would overrun
        next_end = elapsed * (len(passes) + 1) / len(passes)
        if len(passes) >= minimum and next_end > args.seconds:
            break
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]

    ops = [op for p in passes for op in p.ops]
    failed = [op for op in ops if op.errors]
    for op in failed:
        for error in op.errors:
            print(f"FAIL {error}", file=sys.stderr)

    e2e = ledger.end_to_end(untraced, setup_s, peak_rss_mb())
    if traced:
        reported = ledger.per_layer(traced, untraced, tracer,
                                    workloads.nproc())
    else:
        reported = e2e
    metrics = {name: {"value": value, "unit": ledger.UNITS[name]}
               for name, value in reported.items()}

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if traced:
        trace_path = OUT_DIR / f"trace-{stem}.json"
        trace_path.write_text(json.dumps(
            tracer.chrome_trace(f"perfbench {args.workload}")))
    result = {"correct": not failed, "attempted": len(ops),
              "failed": len(failed), "metrics": metrics}
    raw = {"wall_s": statistics.median(p.wall_s for p in untraced),
           "setup_s": statistics.median(s["setup_s"] for s in setup_samples)}
    document = dict(result, provenance=provenance(args, argv),
                    end_to_end=e2e, raw_end_to_end=raw,
                    error_rate=len(failed) / len(ops),
                    setup_samples=setup_samples,
                    passes=[{"wall_s": p.wall_s, "traced": p.traced,
                             "ops": [dict(op.extra, name=op.name,
                                          seconds=op.seconds, run_s=op.run_s,
                                          host_s=op.host_s)
                                     for op in p.ops]}
                            for p in passes],
                    errors=[e for op in failed for e in op.errors])
    (OUT_DIR / f"result-{stem}-trace{args.trace}.json").write_text(
        json.dumps(document, indent=1, sort_keys=True) + "\n")

    for name, value in sorted(e2e.items()):
        print(f"{args.workload:6} {name:28} {value:14.6g} {ledger.UNITS[name]}")
    print(f"{args.workload:6} {'error_rate':28} "
          f"{len(failed) / len(ops):14.6g} failed/attempted")
    if traced:
        for name, value in reported.items():
            print(f"{args.workload:6} {name:28} {value:14.6g} "
                  f"{ledger.UNITS[name]}")
    print(json.dumps({"provenance": document["provenance"]}))
    print(json.dumps(result))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
