"""The machine's speed, from a fixed pure-Python loop timed between commands.

On a shared virtual machine the speed of the same pure-Python work drifts by
about ±15% over tens of seconds, for reasons outside the program.  Time
metrics are therefore reported at a reference speed: a wall time measured in
a run is multiplied by ``REFERENCE_S / mean(loop times of that run)``, so it
reads as the seconds the command would take on a machine where one loop takes
``REFERENCE_S``.  The loop does what the program spends its time on, exact
integer arithmetic, dictionaries, small tuples and sorting, and it is the benchmark's own
code, so a change to the program moves the scaled figures and never the
scale.  The raw wall times and the scale go to the results file.
"""

from __future__ import annotations

import statistics
import time

# A typical loop time on the 2-vCPU "Intel(R) Xeon(R) Processor" virtual
# machine described in README.md, Python 3.11.7 (14 to 27 ms were seen).
# Any fixed value would do: only ratios between runs matter.
REFERENCE_S = 0.02
# Loop samples per second of command time; every command gets at least one.
SAMPLES_PER_S = 2


def loop() -> float:
    """Seconds taken by one fixed amount of interpreter work."""
    start = time.perf_counter()
    table, items, acc = {}, [], 1
    for i in range(20_000):
        acc = (acc * 1_000_003 + i) % (1 << 127)
        key = (i * 7919) % 50021
        table[key] = (acc >> 64, i)
        items.append((key, acc & 0xFFFF))
    items.sort()
    sum(value for _, value in items[::7])
    return time.perf_counter() - start


class Speed:
    """Loop times sampled through a run, weighted by the time they cover."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, covering_s: float = 0.0) -> list[float]:
        """Take and return loop samples for ``covering_s`` seconds of work."""
        n = max(1, round(covering_s * SAMPLES_PER_S))
        times = [loop() for _ in range(n)]
        self.samples += times
        return times

    @property
    def scale(self) -> float:
        """Factor taking this run's wall seconds to seconds at the reference speed.

        The mean, not the median: the host's speed switches between levels
        within seconds, and a command's time sums over them as the mean does.
        """
        return REFERENCE_S / statistics.fmean(self.samples)
