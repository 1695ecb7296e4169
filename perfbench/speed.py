"""Machine-speed probe for a shared, noisy host.

On small shared machines the speed of one core can change by half within
seconds, as other tenants come and go, and a run's wall time follows it.
While active, the probe runs a fixed calibration kernel every INTERVAL_S
from a SIGALRM handler, in this process and thread, and records when it ran
and how long it took. A measured interval is then reported with the probe's
own time taken out, scaled to the speed at which the kernel takes
REFERENCE_S:

    normalized = (wall - probe time) * REFERENCE_S / mean kernel time

where the mean is over the samples taken within WINDOW_S of the interval.
The kernel mixes interpreter work with small numpy calls, as the package
does, so both slow down together.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL_S = 0.015
WINDOW_S = 0.25
REFERENCE_S = 2.5e-4

_VEC = np.linspace(0.1, 1.6, 16) + 1j * np.linspace(1.0, 0.1, 16)


def kernel():
    total = 0.0
    for _ in range(50):
        total += float(np.sum(np.abs(_VEC * np.conj(_VEC))))
        total += sum(x * x for x in range(8))
    return total


class SpeedProbe:
    """Samples the kernel's duration every INTERVAL_S while active."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _sample(self, signum=None, frame=None):
        t0 = perf_counter()
        kernel()
        self.durations.append(perf_counter() - t0)
        self.starts.append(t0)

    def normalize(self, t0, t1):
        """Seconds of the interval [t0, t1] without the probe's own time,
        at the reference speed."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        net = (t1 - t0) - sum(self.durations[lo:hi])
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_left(self.starts, t1 + WINDOW_S)
        if lo == hi:
            self._sample()
            lo, hi = len(self.durations) - 1, len(self.durations)
        return net * REFERENCE_S / statistics.fmean(self.durations[lo:hi])
