"""The host's slowdown, sampled while the timed work runs.

The benchmark was written on a virtual machine whose CPUs switch between
a fast and a slow state, up to about 1.7 times slower, every tenth of a
second or so; the share of slow time drifts over minutes with the host's
load.  Raw wall times then drift by tens of percent between runs of the
same code (README.md, Noise).

While `SAMPLER.running()` is active, a SIGALRM handler times a short
fixed piece of work, the slice, every INTERVAL seconds of wall time,
inside whatever code is running.  The slice is a numpy table lookup like
eaqecc's field arithmetic, because slow states slow that kind of work
and eaqecc's commands alike.  A stretch's slowdown is its mean slice time
over NOMINAL_SLICE, and a time divided by its slowdown reads as wall time
on a host where the slice takes NOMINAL_SLICE.  The handler's own time is
kept in `spent`, for the timers to subtract.

Numpy is imported when the sampler first runs, not with this module, so
that the thread-pool pins set before it take effect.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

INTERVAL = 0.04
# 64 Ki lookups into a 64 KiB table, as in GF(256) arithmetic; the index
# arrays and the result take another 192 KiB, so the slice leaves the
# first-level cache as eaqecc's enumeration blocks do.
SLICE_SHAPE = (1024, 64)
# About the slice's time in the fast state of the 2-core x86 VM the
# benchmark was written on.  Any fixed value works for comparisons; this
# one keeps reported times close to that machine's uncontended wall time.
NOMINAL_SLICE = 0.43e-3


def _make_slice():
    import numpy as np

    rng = np.random.default_rng(0)
    table = rng.integers(0, 256, (256, 256), dtype=np.uint8)
    rows = rng.integers(0, 256, SLICE_SHAPE, dtype=np.uint8)
    cols = rng.integers(0, 256, SLICE_SHAPE, dtype=np.uint8)

    def timed_slice() -> float:
        start = time.perf_counter()
        table[rows, cols]
        return time.perf_counter() - start

    return timed_slice


class Sampler:
    def __init__(self) -> None:
        self.times: list[float] = []  # every slice timed, in order
        self.spent = 0.0  # seconds spent in the handler
        self._slice = None

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        self.times.append(self._slice())
        self.spent += time.perf_counter() - start

    @contextmanager
    def running(self):
        if self._slice is None:
            start = time.perf_counter()
            self._slice = _make_slice()
            self.spent += time.perf_counter() - start
        previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def sample_busy(self, seconds: float) -> list[float]:
        """Slices timed over `seconds` of busy waiting, which keeps the
        CPU as loaded as during timed work."""
        first = len(self.times)
        with self.running():
            end = time.perf_counter() + seconds
            while time.perf_counter() < end:
                pass
        return self.times[first:]


SAMPLER = Sampler()


def slowdown(times: list[float]) -> float:
    """Slowdown of the stretch in which `times` were sampled."""
    return statistics.fmean(times) / NOMINAL_SLICE
