"""A clock that discounts the host's changing speed.

On a shared host, other tenants slow this process's core by up to 1.7x,
in episodes lasting from a fraction of a second to tens of seconds. Every
pass of a workload slows alike, so its wall time tracks the host as much
as the program. `HostClock` times a fixed piece of reference work every
INTERVAL_S seconds, from a SIGALRM handler that runs between the
program's own bytecodes. Its clock advances like `perf_counter`, scaled
by REFERENCE_S over the mean of the last few reference times: while the
reference work takes 1.5x as long as REFERENCE_S, the clock runs at 1/1.5
of real time. The handler's own time is left out. A reading is thus the
seconds the interval would have taken at the speed of the host on which
REFERENCE_S was measured, and a change to the program moves it as it
moves wall time.
"""
from __future__ import annotations

import signal
import statistics
from collections import deque
from time import perf_counter

INTERVAL_S = 0.01
RECENT = 4
# Duration of the reference work, timed in the handler while a workload
# runs, in the host's fast episodes (its lower decile) on the 2-core shared
# x86-64 host where the benchmark was defined, under Python 3.
REFERENCE_S = 50e-6


def reference_work():
    """Fixed pure-Python work that builds small tuples and does integer
    arithmetic, the mix the package's own code consists of."""
    total = 0
    for a in range(1, 45):
        t = (a,)
        for b in range(a, 0, -3):
            t = t + (b,)
            total += b * b % 7
    return total + len(t)


def time_reference():
    start = perf_counter()
    reference_work()
    return perf_counter() - start


class HostClock:
    """Use as a context manager; `now()` reads the clock while it runs."""

    def __init__(self):
        self.recent = deque((time_reference() for _ in range(RECENT)), maxlen=RECENT)
        self.samples = list(self.recent)
        # (clock reading at `mark`, perf_counter at `mark`, scale); replaced
        # whole so that a reading never sees a half-updated state
        self.state = (0.0, perf_counter(), self._scale())

    def _scale(self):
        return REFERENCE_S * len(self.recent) / sum(self.recent)

    def _tick(self, signum, frame):
        start = perf_counter()
        reading, mark, scale = self.state
        took = time_reference()
        self.recent.append(took)
        self.samples.append(took)
        self.state = (reading + (start - mark) * scale, perf_counter(), self._scale())

    def now(self):
        reading, mark, scale = self.state
        return reading + (perf_counter() - mark) * scale

    def slowdown(self):
        """Median reference time over REFERENCE_S: how much slower than
        the reference host this host ran, on the median."""
        return statistics.median(self.samples) / REFERENCE_S

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self.previous)
        return False
