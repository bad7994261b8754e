"""How fast this machine runs Python right now, sampled while ops run.

The machine's speed drifts by up to 2x within seconds and for tens of
seconds at a time, so raw op times cannot be compared from run to run.
An interval timer interrupts the benchmark every 20 ms (every 5 ms
during set-up, which is short) to time a small stdlib reference
computation. An op's time in "ref" units is its own time, net of those
interruptions, divided by the mean reference time sampled during it; that
ratio cancels most of the drift.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

INTERVAL_S = 0.02


def reference() -> None:
    """About 1 ms of Fraction arithmetic, a sort and dict updates; never calls primecover."""
    values = [Fraction(i * 7919 % 1009 + 1, i % 997 + 1) for i in range(120)]
    values.sort()
    sum(values[:40], Fraction(0))
    table: dict[int, int] = {}
    for i in range(2000):
        table[i % 97] = table.get(i % 97, 0) + i


class SpeedMeter:
    """Context manager that samples the reference computation from SIGALRM."""

    def __init__(self) -> None:
        self.samples: list[tuple[int, int]] = []  # (start ns, end ns), perf_counter_ns

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter_ns()
        reference()
        self.samples.append((start, time.perf_counter_ns()))

    def __enter__(self) -> "SpeedMeter":
        self._tick(None, None)  # a first sample right away, for intervals that start now
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def every(self, interval: float) -> None:
        """Sample every `interval` seconds from now on."""
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def during(self, start: int, end: int) -> tuple[float, int]:
        """(mean reference ns, ns taken by samples) for the interval [start, end].

        With no sample inside the interval, the nearest sample on each side
        gives the reference time and nothing is taken.
        """
        inside = [e - s for s, e in self.samples if s >= start and e <= end]
        if inside:
            return sum(inside) / len(inside), sum(inside)
        before = [e - s for s, e in self.samples if e <= start][-1:]
        after = [e - s for s, e in self.samples if s >= end][:1]
        near = before + after
        return sum(near) / len(near), 0
