"""Host-speed gauge: a fixed pure-Python loop timed between ops.

On a shared host the CPU runs the same code up to twice as slowly for
minutes at a time, longer than one benchmark run.  The benchmark
therefore times this loop, which never changes and shares no code with
the program, next to its ops, and reports times scaled to a *reference
speed*: the speed at which the loop takes :data:`REFERENCE_MS`.  A change
to the program moves the scaled times as it moves the raw ones; a slow
phase of the host moves both the op and the loop and cancels out.
"""

from __future__ import annotations

import statistics
import time
from collections import deque

#: The gauge loop's time, in ms, at the reference speed.  Fixed for good:
#: changing it rescales every time metric.
REFERENCE_MS = 5.0

#: How often a gauge read takes a fresh sample.
SAMPLE_EVERY_S = 0.1


def loop() -> int:
    total = 0
    for i in range(60_000):
        total += i * i % 7
    return total


def sample_ms() -> float:
    """One timing of :func:`loop`, in ms."""
    start = time.perf_counter()
    loop()
    return 1000 * (time.perf_counter() - start)


class Gauge:
    """Tracks the host's current speed as the recent gauge time."""

    def __init__(self) -> None:
        self._samples = deque((sample_ms() for _ in range(3)), maxlen=3)
        self._last = time.perf_counter()

    def read_ms(self) -> float:
        """Median of the last three gauge times, sampling afresh when the
        last sample is older than :data:`SAMPLE_EVERY_S`."""
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self._samples.append(sample_ms())
            self._last = time.perf_counter()
        return statistics.median(self._samples)

    def scale(self) -> float:
        """Factor that turns a time measured now into reference time."""
        return REFERENCE_MS / self.read_ms()
