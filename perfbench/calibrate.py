"""Host-speed calibration: a fixed reference kernel timed between items.

The benchmark shares a few cores of a host whose speed drifts by up to 2x
over minutes (other tenants on the same cores and caches).  Every timing
the end-to-end metrics report is therefore taken in two steps:

1. CPU seconds of the worker process (``time.process_time``), with BLAS
   pinned to one thread by ``run.py``: time the host takes the core away
   (steal, other runnable threads) does not count.
2. Scaled to the reference host's speed: multiplied by
   ``REFERENCE_S / r``, where ``r`` is the CPU time of :func:`kernel` around
   that measurement.  When the host runs everything 30% slower, both the
   item and the kernel take 30% longer, and the ratio stays.

The kernel never calls into :mod:`repro`, so a change to the program
cannot change it: a program that gets slower by x reads x slower.
"""

from __future__ import annotations

import statistics
import time

#: Median CPU seconds of :func:`kernel` on the reference host (the host
#: NOTES.md names; quiet).  Only a unit: it scales every normalized time
#: by the same constant, and must never change once baselines exist.
REFERENCE_S = 0.0115
#: Kernel runs per sample; the sample is their median.
BURST = 3
#: Item time between two samples, at most (a sample also closes a pass).
INTERVAL_S = 0.5


def kernel() -> int:
    """A fixed mix like the program's: interpreted loops over dicts,
    lists and tuples (routing, Alg. 1 bookkeeping), many small numpy
    calls (per-term kernels) and one cache-sized BLAS product."""
    import numpy as np

    table: dict[tuple[int, int], int] = {}
    order = []
    acc = 0
    for i in range(15000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
        order.append(key)
        acc ^= hash(key) & 0xFFFF
    for key in sorted(order[:5000]):
        acc += table[key] % 7
    small = np.arange(64, dtype=np.float64)
    for _ in range(1600):
        small = np.sqrt(small * 0.5 + 1.0)
    matrix = np.linspace(0.0, 1.0, 256 * 256).reshape(256, 256)
    for _ in range(4):
        matrix = matrix @ matrix
        matrix /= np.abs(matrix).max()
    return acc + int(small[0] + matrix[0, 0])


class Calibrator:
    """Reference-kernel samples taken between a worker's items."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._item_cpu = INTERVAL_S  # the first item is preceded by a sample

    def sample(self) -> None:
        times = []
        for _ in range(BURST):
            start = time.process_time()
            kernel()
            times.append(time.process_time() - start)
        self.samples.append(statistics.median(times))
        self._item_cpu = 0.0

    def before_item(self) -> int:
        """Sample when due; the index of the sample just before the item."""
        if self._item_cpu >= INTERVAL_S:
            self.sample()
        return len(self.samples) - 1

    def after_item(self, cpu_s: float) -> None:
        self._item_cpu += cpu_s

    def scale(self, before: int) -> float:
        """Factor for a time measured between sample ``before`` and the
        next one: REFERENCE_S over their mean."""
        around = self.samples[before:before + 2]
        return REFERENCE_S / statistics.fmean(around)
