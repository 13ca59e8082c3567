"""Machine-speed probe: a fixed stdlib kernel sampled while the workload runs.

The benchmark's host is shared, and its speed moved by up to 1.8x between
minutes (and by tens of percent between seconds) while the work stayed the
same.  The probe runs a ~1 ms kernel of ``Fraction`` arithmetic and dict
churn -- the same kind of work as the engine's, but no code of the engine --
from a ``SIGPROF`` handler every ``PERIOD_S`` of process CPU time, so its
samples are spread evenly over the timed calls, long ones included.  The
runner subtracts the handler's time from the call it interrupted and scales
the call by ``REFERENCE_S / mean(kernel samples)`` taken during the call
(or its pass, for short calls): times read as the seconds the call would
take on a machine where one kernel run takes ``REFERENCE_S``.  The mean,
not the median, is used because a call is slowed by the average contention
over its length.  Over ten seeds per workload (2-vCPU VM, Python 3.11.7,
different hours), the spread of ``wall_s`` was 0.21-0.41 (IQR/median)
unscaled and 0.035-0.055 scaled.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.02
REFERENCE_S = 0.001


def kernel() -> int:
    acc = Fraction(0)
    seen = {}
    for i in range(1, 300):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        seen[(i % 97, acc.denominator % 89)] = acc
    return len(seen)


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0   # seconds spent in the handler so far
        self._busy = False

    def _on_prof(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            kernel()
            dt = time.perf_counter() - t0
            self.samples.append(dt)
            self.spent += dt
        finally:
            self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._on_prof)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, since: int) -> float:
        """The scale for times measured since ``mark()`` returned ``since``."""
        got = self.samples[since:]
        if not got:   # a stretch shorter than one period: measure once now
            t0 = time.perf_counter()
            kernel()
            got = [time.perf_counter() - t0]
        return REFERENCE_S / statistics.fmean(got)
