"""Start each timed operation on a quiet CPU.

On a shared machine the speed of one CPU swings by up to 2x within
seconds, as other tenants come and go; a benchmark that times whatever
moment it lands on measures them as much as the program. Before each
timed operation, QuietGate runs a short calibration loop on every CPU
the process may use, moves the process to the fastest, and waits (at
most MAX_WAIT_S) until that CPU runs the loop within TOLERANCE of the
fastest time seen so far. The operation itself is timed as it runs;
nothing is rescaled. A child process started right after inherits the
chosen CPU.
"""

from __future__ import annotations

import os
import time

TOLERANCE = 1.1
MAX_WAIT_S = 0.5
MAX_CPUS = 4


def _spin() -> float:
    """About a third of a millisecond of dict and str work."""
    start = time.perf_counter()
    table = {}
    for i in range(2000):
        table[str(i)] = i
    return time.perf_counter() - start


class QuietGate:
    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))[:MAX_CPUS]
        self.best = float("inf")
        self.waited_s = 0.0

    def _fastest(self) -> tuple[float, int]:
        timings = []
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            timings.append((min(_spin() for _ in range(3)), cpu))
        return min(timings)

    def wait(self) -> None:
        """Return with the process pinned to the quietest CPU."""
        start = time.perf_counter()
        while True:
            spin, cpu = self._fastest()
            os.sched_setaffinity(0, {cpu})
            self.best = min(self.best, spin)
            if spin <= TOLERANCE * self.best or time.perf_counter() - start >= MAX_WAIT_S:
                break
            time.sleep(0.01)
        self.waited_s += time.perf_counter() - start

    def release(self) -> None:
        """Let the process, and children started next, use every CPU again."""
        os.sched_setaffinity(0, set(self.cpus))
