"""Host-speed sampling: a reference kernel timed while the operations run.

A shared host's speed can move by tens of percent over seconds and
minutes, more than any regression bound could allow.  So, during a timed
phase, a timer signal interrupts the benchmark every ``SAMPLE_EVERY_S``
and its handler times one unit of a fixed reference kernel (benchmark
code only, no logvor).  The kernel time over its reference time is the
host's slowness at that moment.  Each operation's time, less the time
its handlers took, is divided by the median slowness of the samples
taken during it and within ``WINDOW_S`` around it, so it reads as on the
reference host.  A set-up process, which no sampler watches, measures
its slowness with ``slowness_now`` once it is ready.  A change to logvor
cannot move the kernel, so a scaled time still shows every change in
logvor's own cost.

Samples taken during an operation matter most: the host's speed changes
within a second, and a slow operation timed only between operations was
scaled about half as well.  Each sample first runs one untimed unit, so
that the timed one finds the kernel in the caches: timed cold, right
after the interrupted operation, its time followed that operation's
cache use more than the host's speed.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

SAMPLE_EVERY_S = 0.02   # timer period
WINDOW_S = 0.25         # samples this close to an operation scale its time
#: Kernel unit time on the reference host, which this value defines: about
#: the unit's time on a 2-vCPU x86_64 VM with Python 3.11, numpy 2.4 and
#: one OpenBLAS thread.
REF_UNIT_S = 1.7e-4

_A = np.array([[2.0, 0.3, 0.1, 0.0], [0.3, 2.0, 0.2, 0.1],
               [0.1, 0.2, 2.0, 0.3], [0.0, 0.1, 0.3, 2.0]])
_B = np.ones(4)


def kernel_unit() -> float:
    """Small-matrix numpy calls from Python, the kind of work logvor does."""
    s = 0.0
    for i in range(3):
        M = _A + i * 1e-3
        if np.allclose(M, M.T):
            s += float(np.linalg.eigvalsh(M)[0])
        s += float(np.linalg.slogdet(M)[1]) + float(np.linalg.solve(M, _B)[0])
    return s


class Sampler:
    """Times one kernel unit from a SIGALRM handler every ``SAMPLE_EVERY_S``.

    ``spent`` is the handlers' total time, so that a caller can take it
    out of the operation it interrupted.  Only for the main thread.
    """

    def __init__(self):
        self.t: list[float] = []
        self.slowness: list[float] = []
        self.spent = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        t = time.perf_counter()
        kernel_unit()               # untimed: brings the kernel into the caches
        t0 = time.perf_counter()
        kernel_unit()
        t1 = time.perf_counter()
        self.t.append((t0 + t1) / 2)
        self.slowness.append((t1 - t0) / REF_UNIT_S)
        self.spent += t1 - t

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.slowness:       # a phase shorter than one period
            self._sample()

    def speed(self) -> float:
        """Host speed relative to the reference host, over the whole phase."""
        return 1.0 / float(np.median(self.slowness))

    def scale(self, starts, latencies) -> np.ndarray:
        """Each latency divided by the median slowness of the samples within
        ``WINDOW_S`` of its operation (all samples, if none is that close)."""
        t, u = self.t, np.asarray(self.slowness)
        out = np.empty(len(latencies))
        for j, (start, lat) in enumerate(zip(starts, latencies)):
            near = u[bisect.bisect_left(t, start - WINDOW_S):
                     bisect.bisect_right(t, start + lat + WINDOW_S)]
            out[j] = lat / np.median(near if len(near) else u)
        return out


def slowness_now(units: int = 9) -> float:
    """The host's slowness now: median of ``units`` timed kernel units,
    after one untimed unit."""
    kernel_unit()
    times = []
    for _ in range(units):
        t = time.perf_counter()
        kernel_unit()
        times.append(time.perf_counter() - t)
    return float(np.median(times)) / REF_UNIT_S
