"""Machine-speed reference for the herglotz benchmark.

The benchmark runs on shared hosts whose speed drifts with the load of other
tenants, by 30% and more, in phases of seconds to minutes, also within one
operation; process CPU time drifts with it, so it is no remedy. The
benchmark therefore times a fixed reference kernel, independent of the
package under test, every ``INTERVAL_S`` of wall time while it measures,
from a SIGALRM handler, so that readings fall inside long operations as
well as between short ones. The handler's own time is taken out of the
operation it interrupted, and every measured time is scaled by
``REFERENCE_S`` over the median reading near it: the result is the time the
operation would take on the host at its reference speed.

The kernel is a plain interpreter loop. Against interpreted Python with
dict and list churn and against scipy ``CubicSpline`` builds, it tracked
all three workloads best on a shared 2-vCPU host: across four 35 s runs of
each, it brought the spread of ``wall_s`` to 0.014 (verify), 0.066 (solve)
and 0.031 (sensitivity), where unscaled times spread 0.02-0.18 and the
other kernels 0.02-0.32.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

# median kernel time on an idle 2-vCPU x86_64 KVM guest (Xeon, 2.1 GHz)
REFERENCE_S = 0.0013
INTERVAL_S = 0.1
# readings this close to an operation count for it (several even for a 5 ms one)
WINDOW_S = 0.5
SETUP_READINGS = 15


def _kernel() -> float:
    acc = 0.0
    for i in range(12000):
        acc += (i % 7) * 0.5 - (i % 3) * 0.25
    return acc


def _reading() -> float:
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


def setup_scale() -> float:
    """Scale factor for the set-up just finished: after one untimed kernel
    run (lazy imports, first calls), the median of a few readings."""
    _kernel()
    return REFERENCE_S / statistics.median(_reading() for _ in range(SETUP_READINGS))


class Meter:
    """Periodic kernel readings while a run measures.

    ``paused_s`` is the total time spent in readings so far; an operation's
    latency is its wall time minus the growth of ``paused_s`` across it.
    """

    def __init__(self) -> None:
        self.ends: list = []
        self.readings: list = []
        self.paused_s = 0.0

    def _tick(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        _kernel()
        t1 = perf_counter()
        self.ends.append(t1)
        self.readings.append(t1 - t0)
        self.paused_s += t1 - t0

    def start(self) -> None:
        _kernel()
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self._tick()

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the median reading that ended within WINDOW_S
        of the interval [t0, t1]; the nearest reading if none did."""
        lo = bisect_left(self.ends, t0 - WINDOW_S)
        hi = bisect_right(self.ends, t1 + WINDOW_S)
        near = self.readings[lo:hi] or [self.readings[min(lo, len(self.readings) - 1)]]
        return REFERENCE_S / statistics.median(near)
