"""Regenerate ``perfbench/pins.json``, the benchmark's pinned results.

Run from the repository root (about a minute)::

    python3 perfbench/pin.py

The pins come from the reference semantics: each program and kernel
demo runs uninterrupted on the interpreted pipeline (translator off),
and the sweep runs serially in-process.  Before writing, each program
is run again with the translator on and must reproduce the interpreted
counters exactly.  Only a change to the model itself may change the
pins; a speed-up never does.
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import repro.core  # noqa: E402,F401  (must load before repro.ecache)
from repro.core.config import MachineConfig, perfect_memory_config  # noqa: E402
from repro.core.processor import Machine  # noqa: E402
from repro.harness.experiments import default_jobs  # noqa: E402
from repro.harness.runner import Runner, merge_values  # noqa: E402
from repro.workloads import get  # noqa: E402
from repro.workloads.kernel import run_kernel_demo  # noqa: E402

from mxperf import checks  # noqa: E402
from mxperf.workloads import DEMOS, MAX_CYCLES, PROGRAMS  # noqa: E402


def pin_programs():
    """Console and simulated counters of each program, interpreted."""
    pins = {}
    for name in PROGRAMS:
        program = get(name).program()
        runs = {}
        for jit in (False, True):
            machine = Machine(MachineConfig(jit=jit))
            machine.load_program(program)
            machine.run(MAX_CYCLES)
            if not machine.halted:
                raise SystemExit(f"{name} did not halt")
            runs[jit] = (list(machine.console.values),
                         checks.simulated(machine))
        if runs[True] != runs[False]:
            raise SystemExit(f"{name}: translator run differs from the "
                             "interpreted run")
        console, sim = runs[False]
        pins[name] = {"console": console, "sim": sim}
    return pins


def pin_demos():
    """Simulated counters of each uninterrupted, interpreted boot."""
    pins = {}
    for name in DEMOS:
        run = run_kernel_demo(name, perfect_memory_config(),
                              max_cycles=MAX_CYCLES)
        if not run.machine.halted or not run.matches_expected:
            raise SystemExit(f"{name} did not boot to its golden log")
        pins[name] = {"sim": checks.simulated(run.machine)}
    return pins


def pin_sweep():
    """Digests of the serial in-process sweep, per job and merged."""
    results = Runner().run_serial(default_jobs(quick=True))
    failed = [r.job_id for r in results if not r.ok]
    if failed:
        raise SystemExit(f"sweep jobs failed: {failed}")
    values = merge_values(results)
    return {"sha256": checks.digest(values),
            "jobs": {job_id: checks.digest(value)
                     for job_id, value in values.items()}}


def main():
    """Write every pin to ``pins.json``."""
    pins = {"programs": pin_programs(), "demos": pin_demos(),
            "sweep": pin_sweep()}
    checks.PINS_PATH.write_text(
        json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {checks.PINS_PATH}")


if __name__ == "__main__":
    main()
