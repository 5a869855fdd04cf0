"""The host's speed, sampled while a pass runs.

The benchmark runs on a few vCPUs of a shared host, whose speed for
interpreted Python drifts by up to 2x over seconds to minutes as other
tenants come and go.  A timer signal interrupts the pass every
``EVERY_S`` seconds and times ``reference_slice``, a fixed piece of pure
Python work that never calls `bms`.  An operation's time is then scaled to
the reference speed: multiplied by ``NOMINAL_S`` over the mean time of the
slices taken during it and next to it.  The slices' own time is taken out of
the operation's time first.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

EVERY_S = 0.2
NOMINAL_S = 0.010  # the reference slice's time at the reference speed


def reference_slice() -> int:
    """A fixed mix of interpreted work: integer arithmetic, and building and
    reading small tuples, lists and dicts."""
    acc = 0
    for i in range(37_500):
        acc += i * i % 7
    for i in range(3_100):
        a = tuple(range(i % 9))
        b = list(a)
        b.reverse()
        acc += sum(b) + len({x: x for x in a})
    return acc


def timed_slice() -> tuple[float, float]:
    """Start and end of one reference slice."""
    start = time.perf_counter()
    reference_slice()
    return start, time.perf_counter()


class HostSpeed:
    """Reference slices taken from SIGALRM while the operations run."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.running = False

    def _slice(self, signum=None, frame=None) -> None:
        start, end = timed_slice()
        self.starts.append(start)
        self.ends.append(end)
        if self.running:  # one-shot timer, re-armed after the slice: slices never nest
            signal.setitimer(signal.ITIMER_REAL, EVERY_S)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._slice)
        self.running = True
        self._slice()

    def stop(self) -> None:
        self.running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self._slice()

    def durations(self, i: int, j: int) -> list[float]:
        return [e - s for s, e in zip(self.starts[i:j], self.ends[i:j])]

    def busy_within(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] spent in slices."""
        i = bisect.bisect_right(self.ends, t0)
        j = bisect.bisect_left(self.starts, t1)
        return sum(min(e, t1) - max(s, t0) for s, e in zip(self.starts[i:j], self.ends[i:j]))

    def reference_around(self, t0: float, t1: float) -> float:
        """Mean slice time over the slices within [t0, t1], the last slice
        before it and the first after it."""
        i = max(bisect.bisect_right(self.ends, t0) - 1, 0)
        j = bisect.bisect_left(self.starts, t1) + 1
        return statistics.fmean(self.durations(i, j))
