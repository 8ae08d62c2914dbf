"""Host-speed calibration of the benchmark's timings.

On a shared host the same unit of work takes 1.0x or about 1.5x its
quiet time depending on what the neighbours run, and that state lasts
from seconds to minutes, so whole 35 s runs come out fast or slow.  The
benchmark therefore times a fixed pure-Python kernel (``probe``) between
units and reports every timing scaled to the speed the kernel has on a
quiet host: a unit's wall and CPU seconds are multiplied by
``NOMINAL_PROBE_S`` over the mean kernel time around the unit.  On a
quiet host the factor is about 1 and the figures are plain wall-clock
figures; the uncalibrated values go to the provenance line.

The kernel shares no code or data with the program under test, and it
is timed with the calling thread's CPU clock, so a program thread that
holds the interpreter lock between units makes the probe wait without
making it look slower.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List

#: Kernel loop length: under 4 ms on a quiet core.
PROBE_LOOPS = 30_000
#: Median CPU seconds of ``probe`` on a quiet core of the host the
#: benchmark was defined on (2-vCPU Intel Xeon at 2.0 GHz, CPython
#: 3.11), taken from the fast mode of its probe-time distribution.
NOMINAL_PROBE_S = 0.0036
#: Least wall time between two probes, so probing stays a few percent
#: of a run of short units.
PROBE_EVERY_S = 0.25
#: Share of the time since the previous probe spent probing: long units
#: get more kernel runs at their ends.
PROBE_SHARE = 0.02


def probe() -> float:
    """CPU seconds the calling thread spends on a fixed kernel."""
    t0 = time.thread_time()
    acc = 0
    table = {}
    for i in range(PROBE_LOOPS):
        table[i & 511] = acc
        acc += i * i % 7
    return time.thread_time() - t0


class HostClock:
    """Probe times of one phase, in the order they were taken."""

    def __init__(self) -> None:
        self.at: List[float] = []
        self.cost: List[float] = []

    def probe(self) -> None:
        """Record the mean kernel time over about ``PROBE_SHARE`` of the
        wall time since the previous probe (at least one kernel run)."""
        now = time.perf_counter()
        runs = 1
        if self.at:
            runs = max(1, round(PROBE_SHARE * (now - self.at[-1]) / NOMINAL_PROBE_S))
        self.at.append(now)
        self.cost.append(statistics.fmean(probe() for _ in range(runs)))

    def maybe_probe(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= PROBE_EVERY_S:
            self.probe()

    def scale(self, start: float, end: float) -> float:
        """Factor from measured to nominal seconds for work done between
        ``start`` and ``end``: from the last probe before it to the first
        one after it."""
        lo = max(0, bisect.bisect_right(self.at, start) - 1)
        hi = bisect.bisect_left(self.at, end)
        return NOMINAL_PROBE_S / statistics.fmean(self.cost[lo : hi + 1])
