"""Timings at a reference CPU speed.

The CPU speed this benchmark gets drifts by up to 2x within seconds on a
shared 2-vCPU host (other tenants; the process's own CPU time tracks its
wall time, so it is the speed that changes, not scheduling). Raw wall times
of one `sweep --jobs 1` varied with a coefficient of variation of 0.08-0.15
from one invocation to the next; probing the speed only before and after
each invocation did not help for invocations longer than a second.

So while an interval is timed, SIGALRM runs a short fixed kernel every
SAMPLE_PERIOD_S in the main thread, between the program's bytecodes, and
records how long it took. The interval is reported as

    (wall - time spent in probes) * REFERENCE_S / mean probe time

over the probes taken inside it plus one just before and one just after.
That brought the variation down to 0.03-0.08 on the same invocations. The
probes cost ~2.5% of the timed wall time, the same on every commit; in a
traced run they fall inside whichever span is open, in proportion to its
time. The kernel uses nothing from the program, so no change to the program
moves it.

The scaling assumes the program's timed work is single-threaded. Work that
keeps a second CPU busy from inside the process (a multi-threaded BLAS or
LAPACK call, say) slows the probes and so understates its own time. The raw
wall-time medians are therefore printed beside every scaled one: a scaled
gain that the raw medians do not show is suspect.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PROBE_ITERS = 1000
REFERENCE_S = 0.0025  # nominal probe time: the speed all timings are scaled to
SAMPLE_PERIOD_S = 0.1


def speed_probe() -> float:
    """Seconds taken right now by Python-level looping over ufuncs on tiny arrays.

    That is the same kind of work as the simulator's step loop.
    """
    a = np.zeros(2)
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(PROBE_ITERS):
        a = a + np.cos(a) * 0.5
        acc += float(a[0])
    return time.perf_counter() - t0


class SpeedSampler:
    """Probes the speed periodically while ``timed`` runs a call.

    Owns the SIGALRM handler from construction until ``close``.
    """

    def __init__(self):
        self.probes: list[float] = []
        self.active = False
        speed_probe()  # numpy's first ufunc calls pay lazy set-up
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, *_):
        if self.active:
            self.probes.append(speed_probe())

    def close(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, fn):
        """Run ``fn()``; return its result, raw wall time and reference time.

        Only work done in this process is seen: probes taken while worker
        processes keep both CPUs busy measured the parent's contention, not
        the workers' speed, and scaled `sweep --jobs 2` worse than no scaling.
        """
        self.probes.append(speed_probe())
        first = len(self.probes)
        self.active = True
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            t1 = time.perf_counter()
            self.active = False
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        inside = self.probes[first:]
        self.probes.append(speed_probe())
        wall = t1 - t0
        mean = statistics.fmean(self.probes[first - 1:])
        return result, wall, (wall - sum(inside)) * REFERENCE_S / mean
