"""Scaling times to a fixed interpreter speed.

The machines this benchmark runs on share their cores: the same code runs
up to 1.7 times slower for stretches of seconds, which moved whole-run
medians by a third between runs of one seed.  Just before and just after
an operation, when the last measurement is more than ``INTERVAL_S`` old, a
fixed pure-Python calibration loop (rational sums and dictionary updates,
independent of the package) is timed three times and the median kept.  The
speed factor is ``REFERENCE_S`` over that median; an operation's time is
multiplied by the mean of the factors before and after it, which gives its
duration on a machine where the loop takes exactly ``REFERENCE_S``.  Scaled
times are reported in ms or s like raw ones; the raw figures are printed
alongside.
"""

import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.001
INTERVAL_S = 0.05


def calibration_loop():
    total = Fraction(0)
    for i in range(1, 150):
        total += Fraction(1, i)
    counts = {}
    for i in range(2500):
        key = (i * 7919) % 101
        counts[key] = counts.get(key, 0) + 1
    return total, counts


class Speed:
    def __init__(self):
        self.samples = []
        self.last = float("-inf")

    def factor(self):
        """Multiplier from measured to reference time, as of now."""
        if perf_counter() - self.last >= INTERVAL_S:
            times = []
            for _ in range(3):
                start = perf_counter()
                calibration_loop()
                times.append(perf_counter() - start)
            self.samples.append(statistics.median(times))
            self.last = perf_counter()
        return REFERENCE_S / self.samples[-1]
