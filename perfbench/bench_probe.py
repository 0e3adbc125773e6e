"""Host speed, sampled between ops, for turning measured seconds into
reference seconds.

The benchmark runs on shared machines whose speed moves between states for
seconds to minutes at a time.  On the 2-vCPU Xeon VM the benchmark was
defined on, a fixed Python loop took 6.6 ms in the fast state and 9.3 ms in
the slow one, and the verify-order4 pass took anywhere from 29 to 48 s.
Whole runs fall in one state or the other, so neither longer runs nor
medians remove that.  A fixed kernel timed between ops does: it does the
two kinds of work the engine does (Python dict and tuple work and a numpy
unique over rows), so it slows down with them.  Over ten seeds per
workload on that VM, the quartile spread of ops_per_s was 0.15 to 0.29
measured and 0.01 to 0.05 scaled, and that of op_p50_s 0.15 to 0.46
measured and 0.02 to 0.11 scaled.

Every measured duration d is reported as d * REFERENCE_S / k, where k is
the mean of the kernel's durations sampled just before and just after d.
REFERENCE_S is a fixed unit close to the kernel's duration on that VM (4 ms
in its fast state, 7 ms in its slow one).  The measured durations are kept
alongside the scaled ones.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

perf_counter = time.perf_counter

REFERENCE_S = 0.005
# Sample the kernel again once this much measured time is waiting.
SAMPLE_EVERY_S = 0.1


class SpeedProbe:
    """A fixed kernel of a few milliseconds, timed on demand."""

    def __init__(self):
        self._keys = [(i, i & 7) for i in range(3000)]
        self._rows = np.arange(20_000, dtype=np.int64).reshape(-1, 4) % 97
        self.sample()  # the first call pays one-time costs

    def sample(self) -> float:
        """Median duration of three runs of the kernel."""
        enabled = gc.isenabled()
        gc.disable()  # a collection of the program's heap is not the host's speed
        try:
            return statistics.median(self._kernel() for _ in range(3))
        finally:
            if enabled:
                gc.enable()

    def _kernel(self) -> float:
        start = perf_counter()
        table = {}
        for key in self._keys:
            table[key] = (key[0], len(table))
        total = 0
        for key in self._keys:
            total += table[key][1]
        np.unique(self._rows, axis=0, return_inverse=True)
        return perf_counter() - start


class Scaler:
    """Collects measured durations and scales them by the host speed of
    the samples around them.

    add(seconds, tag) queues a duration; settle() samples the kernel and
    returns the queued (scaled seconds, tag) pairs in order.
    """

    def __init__(self, probe: SpeedProbe | None = None):
        self.probe = probe or SpeedProbe()
        self.samples = [self.probe.sample()]
        self._queued: list = []
        self._queued_s = 0.0

    def add(self, seconds: float, tag) -> None:
        self._queued.append((seconds, tag))
        self._queued_s += seconds

    @property
    def due(self) -> bool:
        return self._queued_s >= SAMPLE_EVERY_S

    def settle(self) -> list:
        current = self.probe.sample()
        factor = REFERENCE_S / ((self.samples[-1] + current) / 2)
        self.samples.append(current)
        scaled = [(seconds * factor, tag) for seconds, tag in self._queued]
        self._queued = []
        self._queued_s = 0.0
        return scaled
