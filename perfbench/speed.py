"""Core-speed probe: gives job times at one reference core speed.

On a shared machine the speed of one core swings by up to 1.8x, in spells
of one to tens of seconds, with no CPU steal to show it (other tenants load
the same physical cores and caches).  A median over a 36 s run does not
remove spells that last as long as the run, so raw times of the same code
spread by 20-35% between runs.

The probe is a fixed pure-Python float loop (about 0.2 ms when the core is
undisturbed) that a SIGALRM handler runs every `PROBE_EVERY_S` in the
measured process, in the same thread as the jobs, so it samples the core's
speed while they run.  `SpeedProbe.reference_time` gives a stretch of work
at the reference speed, the speed at which one probe takes
`REFERENCE_PROBE_S`: each piece of the stretch is weighted by
REFERENCE_PROBE_S / (the probe time measured next to it).  Probe time is
left out of every stretch, and `work_clock` is a clock that stands still
while a probe runs.  The probe is benchmark code, so a change to the
package moves these times exactly as it moves wall time at a fixed speed.
"""
from __future__ import annotations

import bisect
import math
import signal
import time

PROBE_EVERY_S = 0.02
PROBE_ITERATIONS = 2000
#: probe time at the reference speed (about an undisturbed core of the
#: 2-vCPU Xeon VM the baseline was measured on)
REFERENCE_PROBE_S = 2.0e-4


def probe_kernel() -> float:
    """A pure-Python loop over libm calls.

    Of the kernels tried (this one, one with Python calls and dict updates
    added, and a small complex numpy exp), this one slows down by about as
    much as both the Filon transform and the param-sweep jobs do when the
    core is disturbed.
    """
    s = 0.0
    for i in range(PROBE_ITERATIONS):
        s += math.sin(i)
    return s


def smoothed(durations: list) -> list:
    """Median of each probe time and its two neighbours.

    One probe that a timer interrupt or page fault lands in reads slow; a
    spell of slow core speed lasts many probes.
    """
    if len(durations) < 3:
        return list(durations)
    padded = [durations[0], *durations, durations[-1]]
    return [sorted(padded[i : i + 3])[1] for i in range(len(durations))]


class SpeedProbe:
    """Samples the core speed from a timer signal while it is entered.

    Use as ``with probe:`` around the timed region; samples accumulate over
    every entry.  Each entry runs one probe at once, so a stretch of work
    always has a probe next to it.  Only the standard library is used, so
    the probe can time ``import numpy`` too.
    """

    def __init__(self, clock=time.perf_counter, every: float = PROBE_EVERY_S):
        self.clock = clock
        self.every = every
        self.starts: list = []
        self.durations: list = []
        self.spent = 0.0  # seconds spent in probes so far
        self._previous = None
        self._busy = False
        self._cache = None

    def fire(self, signum=None, frame=None) -> None:
        if self._busy:  # a signal that lands in a probe is dropped
            return
        self._busy = True
        start = self.clock()
        probe_kernel()
        duration = self.clock() - start
        self.starts.append(start)
        self.durations.append(duration)
        self.spent += duration
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.fire)
        self.fire()
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def work_clock(self) -> float:
        """The clock minus the time spent in probes."""
        return self.clock() - self.spent

    def _samples(self):
        """(starts, ends, rates) of the probes taken so far."""
        n = len(self.starts)
        if not n:
            raise RuntimeError("no probe was taken")
        if self._cache is None or self._cache[0] != n:
            starts = self.starts[:n]
            ends = [s + d for s, d in zip(starts, self.durations[:n])]
            rates = [REFERENCE_PROBE_S / d for d in smoothed(self.durations[:n])]
            self._cache = (n, starts, ends, rates)
        return self._cache[1:]

    def work_time(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] (clock readings) outside probes."""
        starts, ends, _ = self._samples()
        first = bisect.bisect_right(ends, t0)  # probes that end after t0 ...
        last = bisect.bisect_left(starts, t1)  # ... and start before t1
        inside = sum(min(ends[i], t1) - max(starts[i], t0) for i in range(first, last))
        return (t1 - t0) - inside

    def reference_time(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] outside probes, at the reference speed.

        Probe i stands for the work between the end of probe i-1 and its own
        start; work after the last probe takes the last probe's speed.
        """
        starts, ends, rates = self._samples()
        n = len(starts)
        total = 0.0
        # the work stretch before probe i ends at starts[i]; skip those before t0
        for i in range(bisect.bisect_right(starts, t0), n + 1):
            lo = ends[i - 1] if i else -math.inf
            if lo >= t1:
                break
            hi = starts[i] if i < n else math.inf
            total += (min(hi, t1) - max(lo, t0)) * rates[min(i, n - 1)]
        return total
