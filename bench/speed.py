"""Host speed, and calls timed in reference seconds under a deadline.

The shared host's speed drifts by up to 1.6x over minutes, as other
work on the machine comes and goes.  A fixed stdlib workload, timed
every half second, says how many times slower than REFERENCE_S the host
runs now.  Every measured time is divided by that factor, and every
deadline is counted in the same reference seconds, so a book gets the
same amount of work before its deadline however busy the host is.

An interval timer in this process checks the deadline every half
second during a call and, once the call has run for two seconds,
samples the speed there too, so no second thread is needed; the
samples' own time is not counted.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

# best time of the reference work while the host runs at full speed
REFERENCE_S = 0.0028
# seconds between speed samples, inside and between calls
TICK_S = 0.5
# A sample taken inside a call reads slower than one taken between
# calls, and mixing the two in one window spread the ladder books'
# times by up to 20% between runs.  A call's first ticks therefore use
# the samples taken before it; only longer calls, which need the
# host's speed followed as they run, sample inside.
PRESAMPLED_TICKS = 4


def reference_work():
    """Fixed stdlib work: set and dict traffic, then integer arithmetic."""
    seen, counts = set(), {}
    for i in range(1500):
        key = (i % 61, i % 59, i % 7)
        shape = frozenset(key)
        if shape not in seen:
            seen.add(shape | {i % 13})
        counts[key[0]] = counts.get(key[0], 0) + 1
    total = 0
    for i in range(20000):
        total += i * i % 7
    return len(seen) + total + max(counts.values())


class Deadline(Exception):
    """Raised inside a timed call that overran its deadline."""


class Speed:
    """How many times slower than the reference speed the host runs."""

    def __init__(self):
        self.samples = []
        self._at = -float("inf")

    def sample(self):
        # with the collector off, a sample taken inside a call neither
        # pays for nor takes over a collection of the program's objects
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference_work()
            self._at = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.samples.append((self._at - t0) / REFERENCE_S)

    def factor(self):
        """The median of the last five samples."""
        return statistics.median(self.samples[-5:])

    def refresh(self, max_age=TICK_S):
        """Sample unless the last sample is younger than max_age."""
        if time.perf_counter() - self._at >= max_age:
            self.sample()
        return self.factor()


def timed_call(speed, deadline, fn, *args, **kwargs):
    """Run fn under a deadline in reference seconds.

    Returns (reference seconds, wall seconds, result, traceback).  When
    the deadline passes, fn is interrupted, result is None and traceback
    shows where it was; otherwise traceback is None.
    """
    speed.refresh()
    scaled = wall = 0.0
    ticks = 0
    mark = time.perf_counter()

    def account():
        nonlocal scaled, wall
        now = time.perf_counter()
        wall += now - mark
        scaled += (now - mark) / speed.factor()
        return now

    def tick(signum, frame):
        nonlocal mark, ticks
        mark = account()
        ticks += 1
        if ticks > PRESAMPLED_TICKS:
            speed.sample()
            mark = time.perf_counter()
        if scaled >= deadline:
            raise Deadline()

    signal.signal(signal.SIGALRM, tick)
    result = tb = None
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
            result = fn(*args, **kwargs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline as exc:
        tb = exc.__traceback__
    account()
    return scaled, wall, None if tb else result, tb
