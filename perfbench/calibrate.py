"""Machine-speed calibration for the end-to-end times.

The machine this benchmark runs on shares its CPUs: the speed of the same
code drifts by 30% or more over seconds and minutes.  So the benchmark
times a fixed pure-Python reference loop (its own code, never the
package's) every ``INTERVAL_S`` between jobs and around each set-up spawn,
and scales each measured time by ``(REFERENCE_S / r) ** SENSITIVITY``,
where r is the median loop time within ``WINDOW_S`` of it.  A time then
reads as if the machine ran at the speed at which the loop takes
``REFERENCE_S``, and a change to the package moves it as it moves the raw
time.  The raw times are kept in the result file next to the scaled ones.

``SENSITIVITY`` is how much the workloads slow down when the loop slows
down: regressing log job time on log loop time, with the two interleaved
for 100 s on that machine, gave 0.9 for ``sweep`` and ``identity`` jobs and
0.7 for ``replay`` jobs, whatever the loop's mix of operations.
"""

from __future__ import annotations

import bisect
import statistics
import time
from itertools import combinations, permutations

# The loop's typical time on the 2-vCPU Xeon VM, Python 3.11, on which the
# benchmark was defined.  It only fixes the scale.
REFERENCE_S = 0.0085
SENSITIVITY = 0.8
INTERVAL_S = 0.1
WINDOW_S = 1.0


def reference_loop() -> int:
    """Tuples, generator expressions, frozensets and dict updates, like the
    package's inner loops."""
    counts: dict = {}
    for p in permutations(range(7)):
        d = frozenset(i for i in range(1, 7) if p[i - 1] > p[i])
        counts[d] = counts.get(d, 0) + sum(d)
    for c in combinations(range(12), 5):
        counts[c[0]] = counts.get(c[0], 0) + len(set(c) | {3})
    return len(counts)


class SpeedProbe:
    """Reference timings taken between jobs, and the scale factor for any
    interval they surround."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self._next = 0.0

    def probe(self, force: bool = False):
        """Time the reference once, unless the last time was under
        INTERVAL_S ago."""
        now = time.perf_counter()
        if force or now >= self._next:
            reference_loop()
            end = time.perf_counter()
            self.at.append(now)
            self.took.append(end - now)
            self._next = end + INTERVAL_S

    def factor(self, start: float, end: float) -> float:
        """The scale factor for a time measured over [start, end], from
        the probes within WINDOW_S of it (all probes when none is that
        close)."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        return (REFERENCE_S / statistics.median(self.took[lo:hi] or self.took)) ** SENSITIVITY
