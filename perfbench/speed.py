"""Scaling measured times to a reference CPU speed.

On a shared machine the speed of one core drifts by a third or more over
seconds to minutes, as other tenants come and go.  `SpeedProbe` times a
fixed pure-Python reference kernel (the kinds of Fraction arithmetic and
row elimination that dominate symslice, but written here, so that no
change to symslice moves it) every SAMPLE_EVERY_S seconds while a
workload runs.  A time measured over [start, end] is then rescaled by
REF_S / (reference kernel time around that interval), so it reads as
the time the work would take on a core where the reference kernel takes
REF_S.  The raw wall times are reported alongside.
"""

from __future__ import annotations

import gc
import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

REF_S = 1e-3  # the reference kernel's cost at reference speed
REF_REPEATS = 3
SAMPLE_EVERY_S = 0.2


# Fractions with 40-80 bit terms, the size of conjugated inputs' entries.
_WIDE = [Fraction(7**k + 3 * k + 1, 5**k + 2 * k + 3) for k in range(16, 28)]


def reference_kernel() -> int:
    """Fraction work shaped like symslice's own: a sum of products whose
    denominators grow, an elimination of a fixed 8 x 8 rational matrix,
    and products of wide fractions."""
    s = Fraction(0)
    for i in range(1, 40):
        s += Fraction(i, i + 1) * Fraction(3, 7)
    rows = [
        [Fraction((3 * i + 5 * j) % 19 - 9, (i * j) % 7 + 1) for j in range(8)]
        for i in range(8)
    ]
    for c in range(8):
        piv = next((r for r in range(c, 8) if rows[r][c]), None)
        if piv is None:
            continue
        rows[c], rows[piv] = rows[piv], rows[c]
        for r in range(c + 1, 8):
            if rows[r][c]:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    w = Fraction(0)
    for a in _WIDE:
        for b in _WIDE[:3]:
            w = a * b - w / 3
    return s.numerator % 7 + sum(1 for r in rows if any(r)) + w.numerator % 7


class SpeedProbe:
    """Samples of the reference kernel's time, taken between ops."""

    def __init__(self):
        self.times: list[float] = []
        self.costs: list[float] = []

    def sample(self):
        """Time the kernel REF_REPEATS times and keep the least.  The
        collector is off meanwhile: its cost grows with the workload's
        heap, not with the speed of the core."""
        clock = time.perf_counter
        best = float("inf")
        gc.disable()
        try:
            for _ in range(REF_REPEATS):
                t0 = clock()
                reference_kernel()
                best = min(best, clock() - t0)
        finally:
            gc.enable()
        self.times.append(clock())
        self.costs.append(best)

    def maybe_sample(self):
        if not self.times or time.perf_counter() - self.times[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def scaled(self, start: float, end: float) -> float:
        """end - start at reference speed, from the last sample before
        `start`, every sample inside, and the first sample after `end`."""
        lo = max(bisect_left(self.times, start) - 1, 0)
        hi = bisect_right(self.times, end) + 1
        return (end - start) * REF_S / statistics.mean(self.costs[lo:hi])

    def median_cost(self) -> float:
        return statistics.median(self.costs)
