"""The equivalence contract: one outcome signature and one mid-run restore.

The fuzz oracle's jit and checkpoint pairs, the checkpoint campaign, the
devices gate and ``repro bench``'s ``jit`` section all decide "this run
ended exactly like the straight run" with :func:`signature` (everything
observable about a finished Machine or MultiMachine) and
:func:`mismatches`, and cut a run with the one :func:`restore_midrun`.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, List, Tuple


def signature(target) -> Dict[str, Any]:
    """Everything observable about a finished Machine or MultiMachine.

    A machine's *full* pipeline stat struct is included: a run that
    reaches the right registers in the wrong number of cycles diverges.
    A multiprocessor adds its bus counters, global cycles and shared
    console to the per-node signatures.
    """
    if hasattr(target, "machines"):
        return {
            "nodes": [signature(machine) for machine in target.machines],
            "bus": dataclasses.asdict(target.bus),
            "cycles": target.cycles,
            "console": (list(target.console.values), target.console.text),
        }
    pipe = target.pipeline
    return {
        "stats": dataclasses.asdict(pipe.stats),
        "regs": list(pipe.regs._regs),
        "md": pipe.md.value,
        "psw": (pipe.psw.value, pipe.psw_old.value),
        "console": (list(target.console.values), target.console.text),
        "icache": dataclasses.asdict(target.icache.stats),
        "ecache": dataclasses.asdict(target.ecache.stats),
        "memory": (dict(pipe.memory.space(True)._words),
                   dict(pipe.memory.space(False)._words)),
        # devices are the output channel of kernel and os-mode programs
        "uart_tx": pipe.memory.uart.tx_text,
        "devices": dict(pipe.memory.device_metrics()),
    }


def mismatches(want: Dict[str, Any], got: Dict[str, Any]) -> List[str]:
    """The keys on which two signatures differ, in signature order."""
    return [key for key in want if want[key] != got[key]]


def restore_midrun(target, cut: int,
                   max_cycles: int) -> Tuple[Any, Dict[str, Any]]:
    """Run the loaded ``target`` to cycle ``cut``, snapshot it (draining
    to quiescence), round-trip the state through JSON as the store does,
    restore it into a fresh, unloaded target of the same shape (the
    state carries memory, devices and pending UART input) and run that
    to halt or ``max_cycles``.  Returns ``(restored, state)``.

    Raises what ``snapshot`` raises (``QuiescenceTimeout``,
    ``CheckpointError``) and what ``restore`` raises
    (``SnapshotFormatError``, ``SnapshotConfigError``).
    """
    target.run(cut)
    state = json.loads(json.dumps(target.snapshot()))
    if hasattr(target, "machines"):
        restored = type(target)(len(target.machines), target.config,
                                bus_latency=target.bus_latency,
                                invalidation=target.invalidation)
    else:
        restored = type(target)(target.config)
    restored.restore(state)
    restored.run(max_cycles)
    return restored, state


__all__ = ["mismatches", "restore_midrun", "signature"]
