"""Machine-speed scaling for timings taken on a shared host.

On a host whose cores are shared with other tenants, two things move a
wall-clock timing that no change to the library causes:

- Time slices given to other processes. While another process competed
  for the core, sweep-kernel ops took up to 2.2 times as long in wall
  time. So every op is timed in this process's CPU time
  (time.process_time), which leaves those slices out.
- Speed drift. The speed at which this process runs Python drifts by
  tens of percent over seconds: a fixed interpreter loop ran at 50 and
  then 68 iterations/s in consecutive ten-second stretches, in wall time
  and CPU time alike, and the ops of one fixed sweep-tree deck ran 20%
  faster or slower with it (log-rate correlation 0.86 over 2-second
  windows). So every CPU time is scaled by how fast a fixed calibration
  loop ran around it:

    scaled = cpu_time * REFERENCE_S / median(loop CPU times within WINDOW_S)

The loop is pure interpreter work (dict and integer operations) and
calls nothing in the library, so no change to the library can move it.
Scaled seconds are CPU seconds at the speed where the loop takes
REFERENCE_S; raw wall seconds are printed next to them.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter, process_time

PERIOD_S = 0.1  # a loop sample after each op that ends this long after the last one
WINDOW_S = 1.0  # samples this close to an interval scale it
REFERENCE_S = 0.0008
_ITERATIONS = 5000


def calibration_loop() -> dict:
    counts: dict[int, int] = {}
    for i in range(_ITERATIONS):
        key = i & 255
        counts[key] = counts.get(key, 0) + (i ^ (i >> 3))
    return counts


class SpeedLog:
    """Timestamped calibration-loop samples for one process."""

    def __init__(self):
        self.times: list[float] = []
        self.costs: list[float] = []

    def sample(self) -> None:
        start, cpu = perf_counter(), process_time()
        calibration_loop()
        self.times.append(start)
        self.costs.append(process_time() - cpu)

    def sample_if_due(self) -> None:
        if not self.times or perf_counter() - self.times[-1] >= PERIOD_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the median loop CPU time near the wall-clock interval [start, end]."""
        lo = bisect_left(self.times, start - WINDOW_S)
        hi = bisect_right(self.times, end + WINDOW_S)
        near = self.costs[lo:hi] or [self.costs[min(lo, len(self.costs) - 1)]]
        return REFERENCE_S / statistics.median(near)

    def scaled(self, start: float, wall_s: float, cpu_s: float) -> float:
        """CPU time `cpu_s`, spent from wall-clock `start` for `wall_s`, at the reference speed."""
        return cpu_s * self.factor(start, start + wall_s)
