"""Host-speed correction for wall times measured on a shared machine.

On a shared host the same job's wall time drifts by 30 % or more over
minutes (other tenants' load; wall time equals CPU time, so it is not
waiting). A fixed pure-Python kernel, timed every ``INTERVAL_S`` from a
timer signal in the measured process itself, sees the same slowdown over
the same interval. A measured time is reported as

    wall time * REF_KERNEL_S / kernel time during the measurement,

the wall time at the reference host speed. The kernel shares no code with
fracwave, so a change to the program cannot move it.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
# kernel time that defines the reference host speed: about the kernel's time
# on an uncontended 2.1 GHz Xeon vCPU, so corrected times read close to the
# wall times of a quiet host
REF_KERNEL_S = 1.45e-4


def _kernel() -> complex:
    # complex power series in pure Python, like the scalar Mittag-Leffler
    # code; of the kernels tried it tracked the workloads' slowdown best
    z = 0.3 + 0.1j
    s = 0j
    for k in range(600):
        s += z**k / (k + 1.0)
    return s


class HostSpeed:
    """Context manager sampling the kernel during the ``with`` body.

    One sample is taken on entry and one on exit, outside the caller's
    timed region, so a measurement shorter than ``INTERVAL_S`` still has two.
    """

    def __init__(self):
        self.samples = []

    def _sample(self, *_):
        start = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self.samples = []
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
        return False

    def correct(self, wall_s: float) -> float:
        """``wall_s`` at the reference host speed.

        The kernel time is a mean trimmed by a tenth on each side, so a
        sample stretched by a context switch does not skew it.
        """
        samples = sorted(self.samples)
        cut = len(samples) // 10
        kernel_s = statistics.fmean(samples[cut : len(samples) - cut])
        return wall_s * REF_KERNEL_S / kernel_s
