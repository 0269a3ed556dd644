"""Host-speed references, so timings repeat on a shared, throttled host.

On a small shared host the same code runs up to ~1.5x slower for stretches
of several seconds, and each vCPU has its own stretches. A median over a 15 s
run still moves with the share of the run that fell into a slow stretch. So
every timed interval is rescaled by a fixed reference measured on the same
CPU at the same time; a figure in "ms" or "s" here is wall time on a host
where the reference takes its nominal time. Two references are used, because
in-process work and process start-up slow down by different factors:

* In-process work: a SIGALRM timer runs a ~1 ms kernel of interpreter,
  small-array and array work ten times a second (twice per tick: once to
  refill the caches, once timed). An interval is scaled by ``KERNEL_MS``
  over the median kernel time within 1 s of it; handler time inside the
  interval is subtracted.
* Child processes: the timer is held while a child runs (the vCPUs slow each
  other down), and right after each child a ``python -c pass`` start-up is
  timed. An interval is scaled by ``START_MS`` over the median start-up time
  within 2 s of it.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

KERNEL_MS = 1.0
START_MS = 60.0
SAMPLE_INTERVAL_S = 0.1
KERNEL_WINDOW_S = 1.0
START_WINDOW_S = 2.0


_FOCK = np.arange(11221.0)
_AMPS = np.exp(-_FOCK / 2000.0) + 0j


def reference_kernel() -> None:
    """Fixed mix of interpreter, small-array and 11k-element array work.

    The last part has the shape of one closed-form propagation step at
    n_max = 11220, so its working set (~1 MB) feels cache pressure as the
    program's array work does.
    """
    acc = 0
    for i in range(2000):
        acc += i * i
    a = np.arange(8.0)
    for _ in range(100):
        a = np.sqrt(a * a + 1.0) - 1.0
    theta = np.sqrt(_FOCK + 1.0) * 3.7
    out = np.exp(-1j * (_FOCK + 1.0) * 3.7) * (np.cos(theta) - 1j * np.sin(theta)) * _AMPS
    float(np.sum(np.abs(out) ** 2))


class Samples:
    """Timestamped durations of one reference, in time order."""

    def __init__(self, nominal_ms: float, window_s: float) -> None:
        self.nominal_ms = nominal_ms
        self.window_s = window_s
        self.starts: list[float] = []
        self.durations: list[float] = []

    def add(self, start: float, duration: float) -> None:
        self.starts.append(start)
        self.durations.append(duration)

    def scale(self, t0: float, t1: float) -> float:
        """Nominal over the median reference time near ``[t0, t1]``."""
        lo = bisect.bisect_left(self.starts, t0 - self.window_s)
        hi = bisect.bisect_right(self.starts, t1 + self.window_s)
        window = self.durations[lo:hi]
        if not window:
            raise RuntimeError("no host-speed sample near the timed interval")
        return self.nominal_ms / (statistics.median(window) * 1e3)

    def median_ms(self) -> float:
        return statistics.median(self.durations) * 1e3 if self.durations else math.nan


class SpeedSampler:
    """Context manager that samples both references while it is open.

    ``busy`` is the total time spent in the timer handler; read it before and
    after an in-process interval and subtract the difference.
    """

    def __init__(self) -> None:
        self.kernel = Samples(KERNEL_MS, KERNEL_WINDOW_S)
        self.start = Samples(START_MS, START_WINDOW_S)
        self.busy = 0.0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        reference_kernel()
        t2 = time.perf_counter()
        self.kernel.add(t1, t2 - t1)
        self.busy += time.perf_counter() - t0

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def stop(self) -> None:
        """Stop sampling; later calls do nothing."""
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    @contextlib.contextmanager
    def child(self):
        """Hold the timer while a child process runs, then time one start-up."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            yield
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], check=True)
            self.start.add(t0, time.perf_counter() - t0)
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
