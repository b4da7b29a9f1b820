"""Host-speed calibration: a fixed pure-Python loop timed between queries.

The benchmark runs on shared virtual machines whose neighbours slow a
process down by up to a factor of two, in phases that last from a fraction
of a second to minutes.  The same query then takes 16 ms in one run and
30 ms in the next, and no statistic of raw times stays within a 25% bound
across runs.

`HostClock` times a fixed loop of exact rational arithmetic and
tuple-keyed dictionary updates (the kind of work powerpoly's polynomials
do) right before and right after each query, and rescales the query's
time by the loop's reference time over the mean of those two loop times.
The result is the query's time in reference-host seconds: the seconds it
would take on a host where the loop takes `REFERENCE_S`.  The loop uses
only the standard library, so no change to powerpoly moves it; a change
that makes powerpoly slower makes its reference-host seconds larger by
the same share.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

#: The loop's time on a 2-vCPU Intel Xeon virtual machine (Python 3.11)
#: in its fastest phase, where measured and reference-host seconds agree.
REFERENCE_S = 0.0018
#: After an interval the loop runs about this share of the interval's
#: length (at least once): a long query spans many of the host's phases,
#: and a single run of the loop on either side would sample just one.
WINDOW_SHARE = 0.05


def _loop():
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1) - Fraction(1, i * i + 1)
    terms: dict[tuple[int, int], int] = {}
    for i in range(1500):
        terms[(i, i % 7)] = terms.get((i - 1, (i - 1) % 7), 0) + i
    return acc, len(terms)


def time_loop() -> float:
    """Seconds one run of the calibration loop takes, with the collector off.

    The collector is off so that garbage a query left behind is not
    collected inside the loop and billed to the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Converts measured seconds to reference-host seconds.

    Call `scale` right after each timed interval: the interval is rescaled
    by the mean loop times measured just before it (at the previous call,
    or at construction) and just after it.
    """

    def __init__(self, timer=time_loop):
        self.timer = timer
        self.before = timer()

    def scale(self, seconds: float) -> float:
        runs = max(1, round(WINDOW_SHARE * seconds / REFERENCE_S))
        after = sum(self.timer() for _ in range(runs)) / runs
        factor = REFERENCE_S / ((self.before + after) / 2)
        self.before = after
        return seconds * factor
