"""Host-speed sampling, so timings on a shared machine stay comparable.

On a shared host the same work runs 20-40 % slower from one minute to the
next, and that drift, not the program, would set the run-to-run spread. While
a pass runs, a wall-clock timer interrupts the main thread every PERIOD_S to
time a fixed numpy/Python kernel. An operation's time is then its wall time
minus the kernel runs inside it, scaled by NOMINAL_S / (median kernel time
within WINDOW_S of the operation): seconds at the reference host speed.

The kernel is benchmark code, but it runs in the program's own process and
thread, sharing its allocator and numpy state. The cyclic garbage collector
is off while it runs, so the kernel's allocations never trigger a collection
that walks crowdirl's live objects; a change to crowdirl's heap can still
move the kernel time slightly through the allocator and the caches.
"""
from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

import numpy as np

NOMINAL_S = 0.01  # kernel time at the reference speed (2-vCPU Xeon VM, numpy 2.4)
PERIOD_S = 0.25
WINDOW_S = 1.0
_A = 6.0 * np.eye(6) + np.ones((6, 6))


def kernel_seconds() -> float:
    """Time one run of the calibration kernel: small linear algebra and dicts."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        x = np.zeros(6)
        acc = 0.0
        for _ in range(600):
            x = np.linalg.solve(_A, x + 1.0)
            acc += float(np.sum((_A @ x) ** 2))
            acc += sum({j: j * 0.5 for j in range(16)}.values())
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def median_kernel_seconds(samples: int = 5) -> float:
    return statistics.median(kernel_seconds() for _ in range(samples))


class HostSpeed:
    """Kernel samples taken on a timer while the `with` block runs."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.durations.append(kernel_seconds())
        self.starts.append(start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scaled(self, start: float, end: float) -> float:
        """Seconds spent in [start, end] net of sampling, at the reference speed."""
        lo, hi = bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)
        net = end - start - sum(self.durations[lo:hi])
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_left(self.starts, end + WINDOW_S)
        near = self.durations[lo:hi] or self.durations
        return net * NOMINAL_S / statistics.median(near) if near else net
