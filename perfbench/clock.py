"""Wall time rescaled to a reference machine speed.

On a shared machine the same computation can take twice as long from one
second to the next, and the speed of one CPU says little about another.
So the benchmark measures the speed of the CPU it runs on, in the thread
that runs the program: a fixed reference kernel, independent of
``legal_sbd``, runs every ``PERIOD_S`` seconds from a ``SIGALRM`` handler
while the clock runs.  Between two probes the machine is taken to run at
the mean speed of those two probes; probe time itself counts as zero.
A measured interval then reads as the seconds it would have taken on a
machine where the kernel takes ``REFERENCE_S``.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from bisect import bisect_right

import numpy as np

PERIOD_S = 0.05
REFERENCE_S = 0.003  # about the kernel's time on an unloaded 2-core x86-64 machine
_WORDS = ("art", "Tribunal", "école", "12", ".")


def _kernel(timer=time.perf_counter) -> float:
    """String, dict and small-array work in the proportions of the
    program's hot loops; returns its duration on *timer*."""
    t0 = timer()
    counts: dict[str, int] = {}
    for i in range(3000):
        word = _WORDS[i % 5]
        key = f"{i % 21 - 10:+d}:{word.lower()}"
        counts[key] = counts.get(key, 0) + len(word)
    a = np.zeros((5, 5))
    for _ in range(200):
        a = np.maximum(a, a[:, None].max(axis=0) + 1.0) * 0.5
    return timer() - t0


class NominalClock:
    def __init__(self):
        # (start, end, kernel seconds) of each probe
        self.probes: list[tuple[float, float, float]] = []
        self._map = None
        self._timer = time.perf_counter

    def probe(self) -> None:
        """Time the kernel on the CPU this thread runs on."""
        t0 = time.perf_counter()
        seconds = _kernel(self._timer)
        self.probes.append((t0, time.perf_counter(), seconds))
        self._map = None

    def _alarm(self, signum, frame) -> None:
        self.probe()

    @contextlib.contextmanager
    def running(self):
        """Probe periodically inside the block, and once at each end."""
        previous = signal.signal(signal.SIGALRM, self._alarm)
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.probe()

    @contextlib.contextmanager
    def threaded(self):
        """For work on several threads: probes inside the block time the
        kernel in CPU time of this thread, which leaves out its waits for
        the interpreter lock while worker threads hold it."""
        self._timer = time.thread_time
        try:
            yield
        finally:
            self._timer = time.perf_counter

    def _build(self):
        """Piecewise-linear map from wall time to nominal time: slope 0
        inside a probe, and between two probes the reference time over
        the mean of their kernel times."""
        probes = sorted(self.probes)
        bounds, rates = [], []
        for k, (start, end, seconds) in enumerate(probes):
            after = probes[k + 1][2] if k + 1 < len(probes) else seconds
            bounds += [start, end]
            rates += [0.0, REFERENCE_S / ((seconds + after) / 2)]
        nominal = [0.0]
        for k in range(1, len(bounds)):
            nominal.append(nominal[-1] + rates[k - 1] * (bounds[k] - bounds[k - 1]))
        return bounds, nominal, rates, REFERENCE_S / probes[0][2]

    def nominal(self, t: float) -> float:
        """Reference-speed seconds at wall time *t*, counted from the first probe."""
        if self._map is None:
            self._map = self._build()
        bounds, nominal, rates, first_rate = self._map
        k = bisect_right(bounds, t) - 1
        if k < 0:
            return first_rate * (t - bounds[0])
        return nominal[k] + rates[k] * (t - bounds[k])

    def seconds(self, t0: float, t1: float) -> float:
        """Reference-speed length of the wall-time interval [t0, t1]."""
        return self.nominal(t1) - self.nominal(t0)

    def probe_ms(self) -> float:
        """Median kernel time, a measure of how loaded the machine was."""
        return 1000.0 * statistics.median(p[2] for p in self.probes)
