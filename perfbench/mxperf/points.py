"""Worker-side wrapper around each sweep point function.

The ``sweep`` workload submits every experiment job through
:func:`timed_point`, so the in-worker compute time of each point is
measured where it happens and comes back with its value; the Runner's
own ``JobResult.duration`` minus this time and the calibration is what
spawn, IPC and result transfer cost.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict

from repro.harness.runner import resolve

from mxperf.calibrate import host_seconds


def timed_point(fn: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """Run ``fn(**params)``; return its value with the span it took and
    the host-speed calibration taken in the worker just before it."""
    target = resolve(fn)
    host_s = host_seconds()
    t0 = time.perf_counter()
    value = target(**params)
    t1 = time.perf_counter()
    return {"value": value, "t0": t0, "t1": t1, "pid": os.getpid(),
            "host_s": host_s}
