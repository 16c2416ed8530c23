"""Export cycle traces as Chrome/Perfetto ``trace_event`` JSON.

The output is the classic ``traceEvents`` JSON accepted by
``ui.perfetto.dev`` and ``chrome://tracing``: one process (the MIPS-X
core), one thread per pipestage of Figure 1 (IF, RF, ALU, MEM, WB), so
the staircase of instructions moving down the pipe -- and the plateaus
where a stall freezes it -- reads directly off the timeline.

Timebase: **1 clock cycle = 1 microsecond** of trace time (``ts``/
``dur`` are in µs per the trace_event spec).  At the paper's 20 MHz
clock a real cycle is 50 ns; the 20x inflation is deliberate so cycle
boundaries stay legible at default zoom.

Track layout (``pid`` 1 for a single core; a multiprocessor export
uses one pid per node, ``pid = node index + 1``):

====  ======================  =========================================
tid   track                   contents
====  ======================  =========================================
1-5   IF, RF, ALU, MEM, WB    one ``X`` slice per instruction per stage
6     Icache miss stall       ``X`` slices, one per miss-service span
7     Ecache late-miss stall  ``X`` slices, one per late-miss span
8     events                  ``i`` instants: branch squashes,
                              exceptions
9     Bus wait                ``X`` slices, one per bus-contention
                              episode (multiprocessor traces only)
10    Translated blocks       ``X`` slices, one per translated-block
                              activation (jit span exports only)
11    Device IRQs             ``i`` instants: UART/timer/disk interrupt
                              posts through the ICU (device runs only)
====  ======================  =========================================

The *Translated blocks* track comes from
:attr:`~repro.core.translate.Translator.spans` rather than the cycle
tracer: an attached tracer forces the interpretive path (translated
closures do not drive per-stage hooks), so block-activation spans are
recorded on un-traced jit runs and exported separately via
:func:`write_jit_trace`.

:func:`validate_trace_events` is the schema gate the tests and the
``repro trace`` CLI run before writing anything to disk.
:func:`multi_trace_events` renders one
:class:`~repro.telemetry.tracer.CycleTracer` per node of a
:class:`~repro.multi.system.MultiMachine` into a single payload so
cross-node stall interleaving is visible on one timeline.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List

from repro.store import write_durable
from repro.telemetry.tracer import STAGES, CycleTracer

#: pid for the single simulated core
CORE_PID = 1
#: tid of the first pipestage track (IF); stage k maps to tid k+1
STAGE_TID_BASE = 1
#: tids for the stall tracks and the instant-event track
STALL_TIDS = {"icache_miss": 6, "ecache_late_miss": 7, "bus_wait": 9}
EVENT_TID = 8
#: tid of the translated-block activation track (jit span exports)
TRANSLATE_TID = 10
#: tid of the device-interrupt instant track (UART/timer/disk posts)
DEVICE_TID = 11

#: ICU cause bits -> device names, for instant labels (matches
#: repro.ecache.devices.TIMER_IRQ/UART_IRQ/DISK_IRQ)
_DEVICE_IRQ_NAMES = ((0x10, "timer"), (0x20, "uart"), (0x40, "disk"))

#: display names for the stall tracks
_STALL_TRACK_NAMES = {"icache_miss": "Icache miss stall",
                      "ecache_late_miss": "Ecache late-miss stall",
                      "bus_wait": "Bus wait"}


def _metadata_events(pid: int, process_name: str,
                     bus_track: bool = False,
                     device_track: bool = False) -> List[Dict[str, Any]]:
    """Process/thread-name ``M`` events that label one process's tracks."""
    events: List[Dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
        "ts": 0, "args": {"name": process_name},
    }]
    names = {STAGE_TID_BASE + k: f"{k + 1}. {stage}"
             for k, stage in enumerate(STAGES)}
    names[STALL_TIDS["icache_miss"]] = _STALL_TRACK_NAMES["icache_miss"]
    names[STALL_TIDS["ecache_late_miss"]] = (
        _STALL_TRACK_NAMES["ecache_late_miss"])
    names[EVENT_TID] = "events"
    if bus_track:
        names[STALL_TIDS["bus_wait"]] = _STALL_TRACK_NAMES["bus_wait"]
    if device_track:
        names[DEVICE_TID] = "Device IRQs"
    for tid, name in sorted(names.items()):
        events.append({"name": "thread_name", "ph": "M", "pid": pid,
                       "tid": tid, "ts": 0, "args": {"name": name}})
    return events


def _tracer_events(tracer: CycleTracer, pid: int) -> List[Dict[str, Any]]:
    """One tracer's ring buffers as ``X``/``i`` events under ``pid``."""
    events: List[Dict[str, Any]] = []
    for record in tracer.records:
        label = record.text
        if record.squashed:
            label += " (squashed)"
        for stage, span in enumerate(record.spans):
            if span is None:
                continue
            start, end = span
            events.append({
                "name": label, "ph": "X", "cat": "pipeline",
                "pid": pid, "tid": STAGE_TID_BASE + stage,
                "ts": start, "dur": end - start + 1,
                "args": {"pc": f"{record.pc:#x}", "stage": STAGES[stage],
                         "squashed": record.squashed},
            })
    for kind, start, end in tracer.stall_spans:
        events.append({
            "name": _STALL_TRACK_NAMES[kind], "ph": "X", "cat": "stall",
            "pid": pid, "tid": STALL_TIDS[kind],
            "ts": start, "dur": end - start + 1,
            "args": {"cycles": end - start + 1},
        })
    for cycle, name, args in tracer.instants:
        events.append({
            "name": name, "ph": "i", "cat": "event", "s": "t",
            "pid": pid, "tid": EVENT_TID, "ts": cycle,
            "args": dict(args),
        })
    for cycle, cause_bits in tracer.device_irqs:
        devices = [name for bit, name in _DEVICE_IRQ_NAMES
                   if cause_bits & bit] or ["unknown"]
        events.append({
            "name": "irq " + "+".join(devices), "ph": "i", "cat": "device",
            "s": "t", "pid": pid, "tid": DEVICE_TID, "ts": cycle,
            "args": {"cause": f"{cause_bits:#x}",
                     "devices": ",".join(devices)},
        })
    return events


def trace_events(tracer: CycleTracer) -> Dict[str, Any]:
    """Render a :class:`CycleTracer`'s ring buffers as trace JSON.

    Returns the ``{"traceEvents": [...]}`` payload;
    :func:`write_trace` serialises it, :func:`validate_trace_events`
    schema-checks it.
    """
    has_bus = any(kind == "bus_wait" for kind, _, _ in tracer.stall_spans)
    events = _metadata_events(CORE_PID, "MIPS-X core", bus_track=has_bus,
                              device_track=bool(tracer.device_irqs))
    events.extend(_tracer_events(tracer, CORE_PID))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "1 us = 1 cycle",
                      "source": "repro.telemetry.perfetto"},
    }


def multi_trace_events(tracers: Iterable[CycleTracer]) -> Dict[str, Any]:
    """Render per-node tracers as one payload, one pid per node.

    ``tracers[k]`` becomes process ``pid = k + 1`` named ``node k``;
    every node carries the full track layout including the bus-wait
    track, so cross-node stall interleaving (one node's Ecache miss
    freezing its neighbours on the bus) lines up on a shared timeline.
    """
    events: List[Dict[str, Any]] = []
    for index, tracer in enumerate(tracers):
        pid = index + 1
        events.extend(_metadata_events(pid, f"node {index}",
                                       bus_track=True,
                                       device_track=bool(
                                           tracer.device_irqs)))
        events.extend(_tracer_events(tracer, pid))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "1 us = 1 global cycle",
                      "source": "repro.telemetry.perfetto"},
    }


def translate_span_events(spans: Iterable[Dict[str, Any]],
                          pid: int = CORE_PID) -> List[Dict[str, Any]]:
    """Translator activation spans as ``X`` slices on the jit track.

    Each span dict (``head``/``n``/``start_cycle``/``end_cycle``/
    ``cycles``, as recorded by ``Translator.record_spans``) becomes one
    slice covering the machine cycles the closure executed.
    """
    events: List[Dict[str, Any]] = []
    for span in spans:
        start = span["start_cycle"]
        events.append({
            "name": f"block {span['head']:#x}", "ph": "X",
            "cat": "translate", "pid": pid, "tid": TRANSLATE_TID,
            "ts": start, "dur": max(span["end_cycle"] - start, 1),
            "args": {"head": f"{span['head']:#x}",
                     "words": span["n"], "cycles": span["cycles"]},
        })
    return events


def jit_trace_events(spans: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Render translated-block activation spans as a trace payload.

    A jit-only companion to :func:`trace_events`: process metadata plus
    the *Translated blocks* track, on the same cycle timebase, so a jit
    run's block coverage can be eyeballed on the Perfetto timeline.
    """
    events: List[Dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": CORE_PID, "tid": 0,
         "ts": 0, "args": {"name": "MIPS-X core"}},
        {"name": "thread_name", "ph": "M", "pid": CORE_PID,
         "tid": TRANSLATE_TID, "ts": 0,
         "args": {"name": "Translated blocks"}},
    ]
    events.extend(translate_span_events(spans))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "1 us = 1 cycle",
                      "source": "repro.telemetry.perfetto"},
    }


def _write_validated(path, payload: Dict[str, Any]) -> Dict[str, Any]:
    """Schema-gate ``payload`` and write it to ``path`` through
    :func:`repro.store.write_durable` (a crash mid-write leaves the
    previous file); returns the payload."""
    problems = validate_trace_events(payload)
    if problems:
        raise ValueError("invalid trace payload: " + "; ".join(problems))
    text = json.dumps(payload, indent=1) + "\n"
    write_durable(Path(path), text.encode("utf-8"))
    return payload


def write_jit_trace(path, spans: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Validate and write a translated-block span trace to ``path``.

    Same schema gate as :func:`write_trace`; returns the payload.
    """
    return _write_validated(path, jit_trace_events(spans))


def validate_trace_events(payload: Any) -> List[str]:
    """Schema-check a trace payload; returns problems ([] = valid).

    Enforces the subset of the trace_event format the exporter uses:
    a ``traceEvents`` list whose members carry ``name``/``ph``/``pid``/
    ``tid``/``ts``, with ``dur >= 0`` on complete (``X``) slices and a
    scope field on instants (``i``).
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"payload is {type(payload).__name__}, expected dict"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["payload has no traceEvents list"]
    if not events:
        problems.append("traceEvents is empty")
    for k, event in enumerate(events):
        where = f"traceEvents[{k}]"
        if not isinstance(event, dict):
            problems.append(f"{where} is not an object")
            continue
        for field in ("name", "ph", "pid", "tid", "ts"):
            if field not in event:
                problems.append(f"{where} missing {field!r}")
        phase = event.get("ph")
        if phase not in ("X", "i", "M"):
            problems.append(f"{where} has unexpected ph {phase!r}")
        for field in ("ts", "dur"):
            value = event.get(field)
            if value is not None and (not isinstance(value, (int, float))
                                      or value < 0):
                problems.append(f"{where} has bad {field}: {value!r}")
        if phase == "X" and "dur" not in event:
            problems.append(f"{where} is a complete slice without dur")
        if phase == "i" and event.get("s") not in ("g", "p", "t"):
            problems.append(f"{where} instant has bad scope "
                            f"{event.get('s')!r}")
    return problems


def write_trace(path, tracer: CycleTracer) -> Dict[str, Any]:
    """Validate and write the trace JSON for ``tracer`` to ``path``.

    Raises ``ValueError`` listing the problems if the payload fails
    :func:`validate_trace_events`; returns the payload on success.
    """
    return _write_validated(path, trace_events(tracer))


def write_multi_trace(path, tracers: Iterable[CycleTracer]) -> Dict[str, Any]:
    """Validate and write a per-node multiprocessor trace to ``path``.

    The multiprocessor analogue of :func:`write_trace`: same schema
    gate, one pid per node (see :func:`multi_trace_events`).
    """
    return _write_validated(path, multi_trace_events(tracers))
