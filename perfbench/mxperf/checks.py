"""Output checks against the simulated results pinned in ``pins.json``.

A change that only speeds the simulator up must leave every simulated
statistic identical, so each op is checked against values pinned from
the interpreted reference run (``perfbench/pin.py`` writes them).  Each
check returns a list of mismatches, each naming what differs; an empty
list means the op is correct.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Any, Dict, List, Optional

PINS_PATH = pathlib.Path(__file__).resolve().parents[1] / "pins.json"

#: snapshot keys that describe the host-side translator, not the
#: simulated machine: they differ between JIT and interpreter by design
_HOST_PREFIX = "core.translate."


def load_pins(path: pathlib.Path = PINS_PATH) -> Dict[str, Any]:
    """The pinned reference results."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def simulated(machine) -> Dict[str, Any]:
    """Every simulated counter of a machine, by catalog name."""
    return {name: value
            for name, value in machine.metrics().snapshot().items()
            if not name.startswith(_HOST_PREFIX)}


def digest(value: Any) -> str:
    """sha256 of the canonical JSON of ``value``."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def compare(label: str, observed: Dict[str, Any],
            pinned: Dict[str, Any]) -> List[str]:
    """One mismatch per key whose value differs from its pin."""
    return [f"{label}: {key} = {observed.get(key)!r}, pinned {pinned[key]!r}"
            for key in sorted(set(pinned) | set(observed))
            if observed.get(key) != pinned.get(key)]


def check_program(name: str, machine, expected: Optional[tuple],
                  pins: Dict[str, Any]) -> List[str]:
    """A suite program halted, printed its known output and reproduced
    every pinned simulated counter."""
    pinned = pins["programs"][name]
    errors = []
    if not machine.halted:
        errors.append(f"{name}: did not halt")
    console = list(machine.console.values)
    want = list(expected) if expected is not None else pinned["console"]
    if console != want:
        errors.append(f"{name}: console {console!r}, expected {want!r}")
    errors += compare(name, simulated(machine), pinned["sim"])
    return errors


def check_boot(name: str, machine, expected_log: str,
               pins: Dict[str, Any]) -> List[str]:
    """A kernel demo, resumed from its snapshot, halted with the golden
    UART log and the pinned signature of the uninterrupted boot."""
    errors = []
    if not machine.halted:
        errors.append(f"{name}: did not halt")
    log = machine.memory.uart.tx_text
    if log != expected_log:
        errors.append(f"{name}: UART log {log!r}, expected {expected_log!r}")
    errors += compare(name, simulated(machine), pins["demos"][name]["sim"])
    return errors


def check_sweep(values: Dict[str, Any],
                pins: Dict[str, Any]) -> Dict[str, List[str]]:
    """Mismatches against the in-process serial reference, keyed by the
    job id they are charged to.

    Each job's value digest is pinned so a mismatch names its job; the
    digest of the whole merged result is checked as well.
    """
    pinned = pins["sweep"]
    errors: Dict[str, List[str]] = {}
    for job_id in sorted(set(pinned["jobs"]) | set(values)):
        if job_id not in values:
            problem = "no value"
        elif job_id not in pinned["jobs"]:
            problem = "not in the pinned grid"
        elif digest(values[job_id]) != pinned["jobs"][job_id]:
            problem = "value digest differs from pin"
        else:
            continue
        errors.setdefault(job_id, []).append(f"{job_id}: {problem}")
    merged = digest(values)
    if merged != pinned["sha256"]:
        errors.setdefault("sweep", []).append(
            f"sweep: merged digest {merged}, pinned {pinned['sha256']}")
    return errors
