"""Timing on a host whose speed drifts.

On a shared machine the same pure-Python work can take a quarter more or
less from one half-minute to the next, and process CPU time drifts with wall
time, so neither clock alone gives steady figures.  ``HostClock`` samples the
host's speed while the benchmark runs: a timer signal every ``PERIOD``
seconds runs a short fixed reference loop in the main thread, between two
bytecodes of whatever is running.  An interval is then converted to
*nominal seconds*: its own time (without the samples taken inside it),
scaled by how much slower than nominal the samples around it ran, raised to
the power ``SENSITIVITY``.  The nominal host runs the reference loop at
``NOMINAL_ITERATION_S`` seconds per iteration.

The program slows down more than the reference loop when the host is busy:
over 39 six-second stretches of ``split_corpus`` operations, log operation
time against log sample time had slope 1.41 (1.4 for a graph-walk loop, 1.7
for a pointer chase through 8 MB).  Scaling by the plain ratio left an
interquartile spread of 9 % between stretches; scaling by the ratio to the
power 1.4 left 5.6 %, against 18.6 % for wall time.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

REFERENCE_ITERATIONS = 2_000_000
NOMINAL_ITERATION_S = 80e-9         # the reference loop on the nominal host
SAMPLE_ITERATIONS = 25_000          # one sample, about 2 ms
PERIOD = 0.125                      # seconds between samples
WINDOW = 0.5                        # samples this close to an interval count
SENSITIVITY = 1.4                   # program slowdown = sample slowdown ** this


def reference_loop(iterations: int = REFERENCE_ITERATIONS) -> float:
    """Seconds of a fixed pure-Python loop."""
    t0 = perf_counter()
    acc = 0
    for i in range(iterations):
        acc += i * i % 7
    return perf_counter() - t0


class HostClock:
    """Context manager that samples host speed while it is active."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        reference_loop(SAMPLE_ITERATIONS)
        self.starts.append(t0)
        self.ends.append(perf_counter())

    def slowdown(self, a: float, b: float) -> float:
        """Mean sample time near [a, b] over the nominal sample time."""
        lo = bisect.bisect_left(self.starts, a - WINDOW)
        hi = bisect.bisect_right(self.starts, b + WINDOW)
        if lo == hi:  # no sample that close: take the nearest ones
            lo, hi = max(0, lo - 1), min(len(self.starts), hi + 1)
        if lo >= hi:
            raise RuntimeError("host clock took no samples")
        mean = sum(self.ends[k] - self.starts[k] for k in range(lo, hi)) / (hi - lo)
        return mean / (NOMINAL_ITERATION_S * SAMPLE_ITERATIONS)

    def mean_sample(self) -> float:
        return sum(e - s for s, e in zip(self.starts, self.ends)) / len(self.starts)

    def own_seconds(self, a: float, b: float) -> float:
        """Wall seconds of [a, b] less the samples taken inside it."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_right(self.starts, b)
        return (b - a) - sum(self.ends[k] - self.starts[k] for k in range(lo, hi))

    def nominal(self, a: float, b: float) -> float:
        """Seconds [a, b] would have taken on the nominal host."""
        return self.own_seconds(a, b) / self.slowdown(a, b) ** SENSITIVITY
