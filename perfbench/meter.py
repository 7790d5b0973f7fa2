"""A speed meter for a shared machine: times a fixed kernel during a round.

The machine the benchmark was built on (2 vCPUs of a shared host) runs
each CPU in a fast or a slow state that switch every few seconds; the
slow one takes 1.6-1.9x as long for the same work, and the two CPUs
switch independently.  The share of slow time differs from one run to
the next, so wall times moved by 25 % and more between runs of the same
code, and no statistic over wall times alone removed that.

``SpeedMeter.start`` arms a SIGPROF timer: every ``PERIOD_S`` of the
process's CPU time a handler times one call of a small pure-Python
kernel, written here and not in robincheck, so no change to robincheck
moves it; it runs once to warm the caches the interrupted code left
cold, then once timed.  Each sample gives the speed at that moment, ``NOMINAL_S /
kernel time``.  The samples that land inside a part's operations weigh
the part's time as it was spent, so ``part wall time * mean speed`` is
the part's time on a machine where the kernel takes ``NOMINAL_S`` (this
machine's fast state).  The handler costs about 0.5 % of the CPU time.
"""

from __future__ import annotations

import bisect
import signal
import time

PERIOD_S = 0.01        # CPU seconds between kernel samples
NOMINAL_S = 18.5e-6    # the kernel's time at the reference speed


def _kernel():
    s = 0
    for i in range(300):
        s += i * i % 7
    return s


class SpeedMeter:
    """Samples the kernel's time while the process runs."""

    def __init__(self):
        self.stamps: list[float] = []   # perf_counter at each sample's end
        self.speeds: list[float] = []   # NOMINAL_S / the sample's kernel time

    def _tick(self, signum, frame):
        _kernel()   # the interrupted code left the caches cold; warm them
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        self.stamps.append(t1)
        self.speeds.append(NOMINAL_S / (t1 - t0))

    def start(self):
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def between(self, t0: float, t1: float) -> list[float]:
        """The speeds sampled between perf_counter times t0 and t1."""
        lo = bisect.bisect_left(self.stamps, t0)
        hi = bisect.bisect_right(self.stamps, t1)
        return self.speeds[lo:hi]
