"""Speed probe: rescales measured times to a fixed nominal machine speed.

The machine this benchmark was defined on is a 2-vCPU virtual machine whose
speed swings by up to 1.7x in phases lasting from seconds to over a minute,
because other tenants contend for the same physical cores.  CPU time inflates
with wall time, so neither is steady, and no machine setting may be changed
to stop it.  The probe measures the contention instead: a timer signal runs a
fixed ~0.7 ms reference kernel (numpy/scipy only, no critns code) every
PERIOD_S seconds, and every stretch of workload time between two probes is
divided by the slowdown the probes around it measured, relative to
REF_NOMINAL_S.  The probe's own time is left out.  Set-up is too short and
too young a process for periodic samples, so it is rescaled by a burst of
samples taken the moment it ends (`current_slowdown`); contention phases
last far longer than set-up does.  Raw times are kept alongside the rescaled
ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np
import scipy.fft

PERIOD_S = 0.1
# reference-kernel time on the defining machine when uncontended (its fast phase)
REF_NOMINAL_S = 6.5e-4

_FFT_INPUT = np.exp(1j * np.linspace(0.0, 40.0, 16**3)).reshape(16, 16, 16)
_ELEMENTWISE_INPUT = np.linspace(-1.0, 1.0, 2**17)
# preallocated: a fresh 1 MiB temporary would be page-faulted in each call
# while the allocator is young, which reads as a slowdown that is not there
_ELEMENTWISE_OUT = np.empty_like(_ELEMENTWISE_INPUT)


def reference_kernel():
    """About equal time in cache-resident small FFTs and in elementwise passes
    over 1 MiB: contention slows the first more and the second less than it
    slows the workloads, and the mix tracks them (slope ~1 in log-log against
    critns solver steps and Besov norms sampled across contention phases)."""
    x = _FFT_INPUT
    for _ in range(3):
        x = scipy.fft.ifftn(scipy.fft.fftn(x) * 0.5) * 2.0
    y = _ELEMENTWISE_OUT
    np.multiply(_ELEMENTWISE_INPUT, 1.0001, out=y)
    np.add(y, 0.5, out=y)
    np.abs(y, out=y)
    np.sqrt(y, out=y)
    return x, y


def current_slowdown():
    """Median slowdown of back-to-back warm kernel runs: the speed right now."""
    times = []
    for _ in range(8):
        t0 = time.monotonic()
        reference_kernel()
        times.append(time.monotonic() - t0)
    return statistics.median(times[1:]) / REF_NOMINAL_S


class SpeedProbe:
    """SIGALRM-driven reference samples: (start, end) of each probe run.

    `exponent` is the workload's sensitivity to contention relative to the
    kernel's: a stretch slowed s-fold for the kernel is taken as slowed
    s**exponent-fold for the workload (see contention_exponent in workloads.py).
    """

    def __init__(self, exponent=1.0):
        self.exponent = exponent
        self.starts = []
        self.ends = []
        self.slowdown = []

    def _tick(self, signum, frame):
        t0 = time.monotonic()
        reference_kernel()  # refills the caches the workload evicted
        t1 = time.monotonic()
        reference_kernel()
        t2 = time.monotonic()
        self.starts.append(t0)
        self.ends.append(t2)
        self.slowdown.append((t2 - t1) / REF_NOMINAL_S)

    def start(self):
        """Take one sample now, then one every PERIOD_S seconds."""
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def probe_time(self, a, b):
        """Time spent in probes inside [a, b]."""
        return sum(max(0.0, min(e, b) - max(s, a)) for s, e in zip(self.starts, self.ends))

    def nominal(self, a, b):
        """Workload time inside [a, b] (probe time excluded) at nominal speed."""
        n = len(self.slowdown)
        if not n:
            return b - a
        total = 0.0
        # gap i runs from the end of probe i-1 to the start of probe i; the
        # first and last gaps are open on one side
        i = bisect.bisect_right(self.ends, a)
        while i <= n:
            lo = a if i == 0 else max(self.ends[i - 1], a)
            if lo >= b:
                break
            hi = b if i == n else min(self.starts[i], b)
            if hi > lo:
                pace = 0.5 * (self.slowdown[max(i - 1, 0)] + self.slowdown[min(i, n - 1)])
                total += (hi - lo) / pace**self.exponent
            i += 1
        return total
