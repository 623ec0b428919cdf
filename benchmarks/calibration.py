"""Host-speed calibration for timings taken on a shared machine.

On a shared host the speed of a virtual CPU drifts by 10-40% over
seconds to minutes, and a benchmark run of twenty seconds sees one such
period.  While a ``Calibration`` runs, a timer signal interrupts the
process every ``SAMPLE_EVERY_S`` to time a fixed loop.  A timing is then
reported as ``raw * CAL_REF_S / loop time``, with the median loop time
of the samples taken during it and within ``WINDOW_S`` of it, and with
the time spent in those samples taken out of ``raw``.  That is the time
the work would take on a host where the loop takes ``CAL_REF_S``, about
its median time on a lightly loaded 2-vCPU host with Python 3.11.  The
loop is benchmark code, so a change to ``aft`` moves the scaled timings
as much as the raw ones; only the host's drift cancels.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

CAL_REF_S = 0.0075
SAMPLE_EVERY_S = 0.1
WINDOW_S = 1.0


def _loop():
    """About 7.5 ms of dict updates over 16,384 keys (about a megabyte)."""
    d = {}
    k = 0
    for i in range(50_000):
        k = (k + 40503) & 0x3FFF
        d[k] = d.get(k, 0) + i
    return d


class Calibration:
    """Loop timings taken from a timer signal between ``start`` and ``stop``."""

    def __init__(self):
        self.interrupted_s = 0.0  # total time spent sampling
        self._times = []  # sample midpoints, increasing
        self._loop_s = []
        self._busy = False
        self._previous = None

    def start(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        if self._previous is None:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._previous = None
        self._sample()

    def _on_timer(self, signum, frame):
        if not self._busy:
            self._sample()

    def _sample(self):
        self._busy = True
        start = time.perf_counter()
        _loop()
        end = time.perf_counter()
        self._times.append((start + end) / 2)
        self._loop_s.append(end - start)
        self.interrupted_s += end - start
        self._busy = False

    def scale(self, start, end):
        """CAL_REF_S over the median loop time within WINDOW_S of [start, end]."""
        lo = bisect.bisect_left(self._times, start - WINDOW_S)
        hi = bisect.bisect_right(self._times, end + WINDOW_S)
        if lo == hi:  # no sample near: take the nearest ones
            lo = max(0, lo - 1)
            hi = min(len(self._times), lo + 2)
        return CAL_REF_S / statistics.median(self._loop_s[lo:hi])
