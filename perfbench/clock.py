"""A clock that corrects for the speed of a shared host.

On a virtual machine whose cores are shared with other tenants, the same
pure-Python work can take 1.5 to 2 times longer for seconds or minutes at a
time, and CPU time slows down with wall time, so neither clock is steady.
``SpeedClock`` times a fixed reference loop every ``PERIOD`` seconds from a
timer signal, in the benchmark's own thread, and counts each interval
between two samples at the speed the latest sample showed.  Readings are in
reference seconds: one reference second is the time in which the host runs
the reference loop ``1 / REFERENCE_SECONDS`` times.  The time spent in the
reference loop itself is left out.

The reference loop is the benchmark's own code, so a change to the library
moves the library's times and not the reference.
"""

from __future__ import annotations

import signal
import time

PERIOD = 0.05
REFERENCE_SECONDS = 0.0015


def reference_work():
    """Fixed pure-Python work of the kinds the library does: tuples as
    dictionary keys, frozensets and set unions."""
    counts = {}
    for i in range(5000):
        key = (i % 31, i % 17)
        counts[key] = counts.get(key, 0) + 1
    union = set()
    for j in range(700):
        union |= frozenset(range(j, j + 6))
    return len(counts) + len(union)


def time_reference():
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


class SpeedClock:
    """``now()`` is a monotonic reading in reference seconds while the
    clock runs, between ``start()`` and ``stop()``."""

    def __init__(self):
        # (reference seconds at `last`, perf_counter at `last`, speed factor);
        # replaced as a whole, so a reading never mixes two samples.
        self._state = (0.0, time.perf_counter(), 1.0)
        self._busy = False
        self._previous = None
        self.samples = []  # seconds of each reference loop

    def start(self):
        ref = time_reference()
        self.samples.append(ref)
        self._state = (0.0, time.perf_counter(), REFERENCE_SECONDS / ref)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        begin = time.perf_counter()
        norm, last, factor = self._state
        ref = time_reference()
        self.samples.append(ref)
        self._state = (norm + max(0.0, begin - last) * factor, time.perf_counter(), REFERENCE_SECONDS / ref)
        self._busy = False

    def now(self):
        t = time.perf_counter()
        norm, last, factor = self._state
        # t < last only when a sample was taken between the two lines above.
        return norm + max(0.0, t - last) * factor

    def slowdown(self):
        """Median reference-loop time over its nominal time: above 1 when
        the host ran slow."""
        ordered = sorted(self.samples)
        return ordered[len(ordered) // 2] / REFERENCE_SECONDS
