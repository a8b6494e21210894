"""Machine-speed calibration.

The speed of a shared machine drifts by tens of percent from one minute
to the next, and within a second by up to twice, as other tenants load the
cores; it drifts for the kernel below as it does for qtoda.  While a
worker runs, a wall-clock timer (``SIGALRM``) runs the kernel every
``PERIOD_S``.  The time spent in the timer is taken out of every timed
interval, and an interval's speed is the mean kernel time over
``KERNEL_REF_S`` of the samples taken during it and the nearest ones
around it.
Dividing by that speed gives times in seconds of a reference machine, one
on which one kernel repetition takes ``KERNEL_REF_S``; raw times are kept
in each run's metadata.

The kernel uses nothing from qtoda, so no change to qtoda can move it.  Its
shape (tuple exponent keys, dict accumulation, ``Fraction`` products)
follows that of the scalar kernel the workloads spend most time in.
Sampling inside the timed work matters.  On a shared 2-core Xeon, the
``build`` workload's median pass over eight consecutive 10-second windows
spread by 28% of its median in raw time and by 1.3% when scaled by
samples taken every 20 ms during it; in another such test, samples taken
only between items brought 15% down to 5%, and for a workload of one long
item they made it worse.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

PERIOD_S = 0.01
KERNEL_REF_S = 0.0004
_TERMS = [((i, i % 3, 0, 0, 0), Fraction(i + 1, i % 4 + 1))
          for i in range(12)]


def _repetition():
    terms = {}
    for k1, c1 in _TERMS:
        for k2, c2 in _TERMS:
            key = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2],
                   k1[3] + k2[3], k1[4] + k2[4])
            s = terms.get(key, 0) + c1 * c2
            if s:
                terms[key] = s
            else:
                terms.pop(key, None)


class Sampler:
    """Samples the kernel on a timer and keeps the work clock: wall time
    less the time the samples took."""

    def __init__(self):
        self.times = []        # perf_counter when each sample began
        self.kernel_s = []     # seconds of one warm kernel repetition
        self.took_s = []       # wall seconds each sample took
        self.stolen_s = 0.0    # their total

    def sample(self, signum=None, frame=None):
        """Take one sample; also the timer's signal handler."""
        t0 = time.perf_counter()
        _repetition()          # warms the caches the work just used
        t1 = time.perf_counter()
        _repetition()
        t2 = time.perf_counter()
        self.times.append(t0)
        self.kernel_s.append(t2 - t1)
        self.took_s.append(t2 - t0)
        self.stolen_s += t2 - t0

    def start(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def clock(self):
        """Seconds of work: wall time less time spent sampling."""
        return time.perf_counter() - self.stolen_s

    def measure(self, t0, t1):
        """(work seconds, speed) of the ``perf_counter`` interval [t0, t1):
        its length less the samples inside it, and how many times slower
        than the reference machine the kernel ran in those samples and the
        nearest one on each side."""
        i = bisect.bisect_left(self.times, t0)
        j = bisect.bisect_left(self.times, t1)
        work = t1 - t0 - sum(self.took_s[i:j])
        window = self.kernel_s[max(0, i - 1):j + 1]
        return work, sum(window) / len(window) / KERNEL_REF_S
