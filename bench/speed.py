"""Machine-speed reference for the timed metrics.

On a shared host the same computation runs at different speeds from one
stretch of time to the next (about 1.7x apart, for seconds to minutes at a
time), so raw wall times of two runs of the same code differ by more than
the effects the benchmark is meant to show.  The benchmark therefore runs a
fixed reference loop, written here and independent of the program, every
``PERIOD_S`` (from a wall-clock timer signal, so also in the middle of an
operation) and after each operation, takes the time spent in it out of the
operation's time, and reports every time at the reference speed:

    scaled = measured * REFERENCE_S / (mean reference time around it)

The reference loop does the kind of interpreter work the program does
(small-integer tuples, dict and set lookups, ``Fraction`` arithmetic,
sorting), so it slows down with the machine as the program does.  The
machine switches between its speeds within fractions of a second, so one
1 ms sample sees one speed; the mean of the samples taken during and just
around an interval estimates the mix of fast and slow time in it, where
their median would snap to one of the two speeds.  A change
to the program changes the measured time and leaves the reference time
alone, so it shows in the scaled time in full.  Raw times are kept in the
result file next to the scaled ones.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

# Nominal reference time: the scaled times are the times on a machine on
# which one reference() call takes this long.
REFERENCE_S = 0.001
PERIOD_S = 0.025   # one reference sample this often, about 4% of the time
WINDOW_S = 0.02    # reference samples this close to an interval are used
MIN_SAMPLES = 4    # else the nearest this many


def reference():
    state, seen, counts, x = 12345, set(), {}, Fraction(0)
    for _ in range(180):
        state = (state * 1103515245 + 12345) % 2147483648
        a, b = state % 37 - 18, (state >> 8) % 29 - 14
        key = (a, b, a * b)
        seen.add(key)
        counts[key] = counts.get(key, 0) + 1
        x += Fraction(a, b % 7 + 1)
    return x, sorted(seen)


class Speedometer:
    """Reference samples taken through a run, and the scale factor for any
    interval of it."""

    def __init__(self):
        self.mids: list[float] = []
        self.secs: list[float] = []
        self.spent = 0.0  # time spent in reference calls
        self._busy = False

    def start(self) -> None:
        """Sample every PERIOD_S until stop(), whatever the run is doing."""
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def sample(self) -> None:
        if self._busy:  # the timer fired during a sample
            return
        self._busy = True
        # Without the cyclic collector, whose cost grows with the program's
        # heap: the reference measures the machine, not the heap.
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
            self._busy = False
        self.mids.append((t0 + t1) / 2)
        self.secs.append(t1 - t0)
        self.spent += t1 - t0

    def scaled(self, interval) -> float:
        """An interval's time without the reference samples inside it, at
        the reference speed."""
        t0, t1, inside = interval
        return (t1 - t0 - inside) * self.factor(t0, t1)

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the mean reference time near [t0, t1]."""
        lo = bisect.bisect_left(self.mids, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.mids, t1 + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            near = sorted(range(len(self.mids)), key=lambda i: max(
                t0 - self.mids[i], self.mids[i] - t1, 0.0))[:MIN_SAMPLES]
            secs = [self.secs[i] for i in near]
        else:
            secs = self.secs[lo:hi]
        return REFERENCE_S / statistics.fmean(secs)

    def median_s(self) -> float:
        return statistics.median(self.secs)
