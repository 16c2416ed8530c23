"""Host-speed calibration for the end-to-end timings.

The host this benchmark runs on is shared: over tens of seconds the
same simulation can take anywhere from 1x to 2x its quiet-host time,
which drowns the differences the benchmark exists to show.  So before
each slice of simulation (and each sweep job and set-up) the benchmark
times a fixed pure-Python loop that uses no repository code, and
reports its timings scaled by ``REFERENCE_S`` over the mean loop time
of the run: host seconds at the speed of a host
on which the loop takes ``REFERENCE_S``.  A single loop sample is a
noisy reading of a host whose speed also wanders within a second, so
the mean over every sample of the run is the one factor applied to all
of its timings.  A change to the repository cannot change the loop, so
it moves the scaled seconds exactly as it moves the raw ones; the raw
seconds are kept in every result document.
"""

from __future__ import annotations

import statistics
import time
from typing import Iterable

#: seconds :func:`host_seconds` takes on the reference host
REFERENCE_S = 0.02
#: loop iterations: about ``REFERENCE_S`` on the reference host
_ITERATIONS = 150_000


def host_seconds() -> float:
    """Seconds the calibration loop takes on this host right now."""
    started = time.perf_counter()
    acc = 0
    table = {}
    for i in range(_ITERATIONS):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 255] = acc
    return time.perf_counter() - started


def factor(host_samples: Iterable[float]) -> float:
    """Multiplier taking seconds measured alongside ``host_samples`` to
    seconds at the reference host's speed."""
    return REFERENCE_S / statistics.mean(host_samples)
