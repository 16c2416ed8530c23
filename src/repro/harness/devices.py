"""The devices gate: boot every kernel-lite demo three ways and compare.

Standing CI gate for the software stack of ROADMAP item 5 (see
``docs/SOFTWARE.md``): each demo in
:data:`repro.workloads.kernel.KERNEL_DEMOS` must

* **boot clean** -- the interpretive run halts and its UART transmit
  log equals the demo's pinned golden log, with at least one delivered
  interrupt (a "demo" that never preempts tests nothing);
* **stay cycle-exact under the JIT** -- a second run with the block
  translator enabled must end with the same full machine signature
  (registers, MD/PSW, memory, console, devices, caches and every
  pipeline counter), and must actually compile blocks;
* **survive checkpoint/restore** -- a third run is cut mid-boot by
  :func:`~repro.checkpoint.equivalence.restore_midrun` (quiescent
  drain, JSON round trip, restore into a fresh machine) and finishes;
  its full signature must equal the straight run's.

Both comparisons are the :func:`~repro.checkpoint.equivalence.signature`
the fuzz oracle and the checkpoint campaign use.
:func:`run_devices_gate` writes the ``DEVICES_results.json`` report at
the repo root; :func:`verdict` judges it for both the ``repro devices``
exit code and the ``check_results.py --devices`` gate: 0 = every demo
held, 1 = harness failure, 2 = a comparison failed.
"""

from __future__ import annotations

import pathlib
import random
from typing import Any, Dict, List, Optional

from repro.checkpoint.equivalence import restore_midrun, signature
from repro.core import perfect_memory_config
from repro.harness.verdict import Verdict, write_report
from repro.store import REPO_ROOT
from repro.workloads.kernel import (KERNEL_DEMOS, KernelRun, kernel_machine,
                                    run_kernel_demo)

DEFAULT_REPORT = REPO_ROOT / "DEVICES_results.json"

#: demos the --quick gate boots (the timer-sliced SPL demo runs ~1.4M
#: cycles interpreted, so CI smoke keeps the two short ones)
QUICK_DEMOS = ("kernel-echo", "kernel-pipeline")

#: demo boot budget (the longest demo, kernel-slice, runs ~1.4M cycles)
MAX_CYCLES = 2_000_000


def _boot(name: str, jit: bool = False) -> KernelRun:
    return run_kernel_demo(name, perfect_memory_config(jit=jit), MAX_CYCLES)


def _checkpoint_boot(name: str, straight: KernelRun) -> Dict[str, Any]:
    """Cut one demo mid-boot, restore, finish, and compare.

    The cut cycle is seeded from the demo name so the gate is
    deterministic but each demo snapshots at a different phase of its
    boot (banner, feed window, teardown).
    """
    total = straight.stats.cycles
    cut = random.Random(sum(name.encode())).randint(
        total // 4, max(total // 4 + 1, total - total // 4))
    restored, state = restore_midrun(
        kernel_machine(name, perfect_memory_config()), cut, MAX_CYCLES)
    return {
        "snapshot_cycle": cut,
        "snapshot_format": state["format"],
        "ok": signature(restored) == signature(straight.machine),
        "halted": restored.halted,
    }


def _gate_demo(name: str) -> Dict[str, Any]:
    """Boot one demo three ways; every comparison lands in the row."""
    straight = _boot(name)
    stats = straight.stats
    row: Dict[str, Any] = {
        "description": KERNEL_DEMOS[name].description,
        "uart_log": straight.uart_log,
        "cycles": stats.cycles,
        "instructions": stats.instructions,
        "interrupts": stats.interrupts,
        "device_metrics": dict(straight.machine.memory.device_metrics()),
        "expected_ok": straight.matches_expected,
        "halted": straight.machine.halted,
    }
    jit_run = _boot(name, jit=True)
    translator = jit_run.machine.pipeline._translator
    row["jit"] = {
        "ok": signature(jit_run.machine) == signature(straight.machine),
        "halted": jit_run.machine.halted,
        "blocks_compiled": translator.stats.compiled if translator else 0,
        "entries_taken": translator.stats.entries if translator else 0,
    }
    row["checkpoint"] = _checkpoint_boot(name, straight)
    row["ok"] = (row["expected_ok"] and row["halted"]
                 and row["interrupts"] > 0
                 and row["jit"]["ok"] and row["jit"]["blocks_compiled"] > 0
                 and row["checkpoint"]["ok"])
    return row


def run_devices_gate(quick: bool = False,
                     output: Optional[pathlib.Path] = None,
                     ) -> Dict[str, Any]:
    """Run the gate over the demo set and persist the report."""
    names = QUICK_DEMOS if quick else tuple(KERNEL_DEMOS)
    demos: Dict[str, Any] = {}
    harness_failures: List[str] = []
    for name in names:
        try:
            demos[name] = _gate_demo(name)
        except Exception as exc:               # noqa: BLE001 -- taxonomy
            harness_failures.append(f"{name}: {type(exc).__name__}: {exc}")
    failed = sorted(name for name, row in demos.items() if not row["ok"])
    payload: Dict[str, Any] = {
        "schema": 1,
        "quick": quick,
        "demos": demos,
        "summary": {
            "demos": len(names),
            "ok": sum(1 for row in demos.values() if row["ok"]),
            "failed": failed,
            "harness_failures": harness_failures,
        },
    }
    write_report(payload, output, DEFAULT_REPORT)
    return payload


#: keys every demo row must carry
ROW_KEYS = ("uart_log", "cycles", "interrupts", "expected_ok", "halted",
            "jit", "checkpoint", "ok")


def verdict(payload: Dict[str, Any]) -> Verdict:
    """The report's verdict, for ``repro devices`` and ``--devices``: each
    demo's three legs (boot, jit, checkpoint; see the module docstring)
    must hold."""
    result = Verdict()
    demos = payload.get("demos")
    summary = payload.get("summary")
    if not isinstance(demos, dict) or not demos:
        result.incomplete.append("devices file: section 'demos' is missing "
                                 "or empty (partial or interrupted gate "
                                 "run?)")
    if not isinstance(summary, dict):
        result.incomplete.append("devices file: section 'summary' is "
                                 "missing or not an object")
        return result
    harness_failures = summary.get("harness_failures", [])
    if not isinstance(harness_failures, list):
        result.incomplete.append("devices file: summary "
                                 "'harness_failures' is not a list")
        harness_failures = []
    for failure in harness_failures:
        result.harness.append(f"devices file: harness failure: {failure}")
    if result.incomplete:
        return result
    for name, row in sorted(demos.items()):
        if not isinstance(row, dict):
            result.incomplete.append(f"devices file: demo '{name}' row is "
                                     "not an object")
            continue
        missing = [key for key in ROW_KEYS if key not in row]
        if missing:
            result.incomplete.append(f"devices file: demo '{name}' is "
                                     f"missing {missing}")
            continue
        legs = [key for key in ("jit", "checkpoint")
                if not isinstance(row[key], dict)]
        if legs:
            result.incomplete.append(f"devices file: demo '{name}' "
                                     f"{legs} must be objects")
            continue
        findings = result.findings
        if not row["halted"]:
            findings.append(f"devices file: demo '{name}' did not halt")
        if not row["expected_ok"]:
            findings.append(
                f"devices file: demo '{name}' boot log differs from its "
                f"pinned golden log (got {row['uart_log']!r})")
        if not row["interrupts"]:
            findings.append(f"devices file: demo '{name}' delivered zero "
                            "interrupts (nothing was preempted)")
        if not row["jit"].get("ok"):
            findings.append(f"devices file: demo '{name}' diverged under "
                            "the translated fast path")
        if not row["jit"].get("blocks_compiled"):
            findings.append(f"devices file: demo '{name}' compiled no "
                            "blocks under the JIT (fast path never "
                            "engaged)")
        if not row["checkpoint"].get("ok"):
            findings.append(
                f"devices file: demo '{name}' diverged across "
                f"checkpoint/restore (snapshot at cycle "
                f"{row['checkpoint'].get('snapshot_cycle')})")
    return result


def format_summary(payload: Dict[str, Any]) -> str:
    """Human-readable per-demo verdict lines for the CLI."""
    lines = []
    for name, row in sorted(payload["demos"].items()):
        verdict = "ok" if row["ok"] else "FAIL"
        lines.append(
            f"  {name:<16} {verdict:<5} {row['cycles']:>9} cycles, "
            f"{row['interrupts']:>4} interrupts, jit "
            f"{'exact' if row['jit']['ok'] else 'DIVERGED'} "
            f"({row['jit']['blocks_compiled']} blocks), checkpoint "
            f"{'exact' if row['checkpoint']['ok'] else 'DIVERGED'} "
            f"@{row['checkpoint']['snapshot_cycle']}")
    summary = payload["summary"]
    lines.append(f"devices gate: {summary['ok']}/{summary['demos']} demos "
                 f"held ({len(summary['harness_failures'])} harness "
                 "failures)")
    return "\n".join(lines)
