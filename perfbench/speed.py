"""Machine-speed probe: a fixed calibration kernel timed while passes run.

The machine this benchmark runs on is shared.  Its speed changes by up to
2x for stretches of seconds to minutes, in wall time and CPU time alike,
because other tenants compete for the same cores and caches.  A pass's wall
time follows those changes, so the median pass of one run can differ from
that of the next by far more than any bound could allow.

The probe measures the machine's speed during every pass.  A SIGALRM timer
interrupts the workload every PERIOD_S seconds, and the handler times one
run of `kernel`, which is fixed, owned by the benchmark, and calls nothing in
barw.  `kernel` mixes the kinds of work the workloads do: interpreted Python,
small numpy calls, sums over a 2 MB array, and Generator construction.  A
sample's slowdown is its duration divided by REFERENCE_S, the kernel's
median duration on the machine described in NOTES.md.  A pass's normalised
time is its wall time, minus the time spent in the handler, divided by its
mean slowdown: the time the pass would take at that reference speed.

The probe reads only timers and runs nothing but its kernel.  It is used in
untraced runs only, so that the per-layer span times carry none of it.
The workload process also samples during its own set-up.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np
from numpy.random import PCG64, Generator

#: seconds between two samples
PERIOD_S = 0.05
#: median duration of one `kernel` run, run back to back, on the machine described in NOTES.md
REFERENCE_S = 0.0016

_SMALL = np.linspace(0.0, 1.0, 1000)
_LARGE = np.linspace(0.0, 1.0, 1 << 18)


def _step(a: int, b: int) -> int:
    return a + b if a < b else a - b


def kernel() -> None:
    """A fixed amount of work of the kinds the workloads do."""
    s = 0.0
    for i in range(1500):
        s += math.log1p(i * 1e-6) * 0.5
    table, items = {}, []
    for i in range(600):
        table[i & 63] = _step(i, 7)
        items.append((i, table[i & 63]))
    for _ in range(30):
        np.exp(_SMALL)
    for _ in range(3):
        _LARGE.sum()
    for i in range(40):
        Generator(PCG64(i)).random()


# once before any timer starts: the handler may interrupt an import, so the
# kernel must not be the first to reach anything numpy loads lazily
kernel()


class SpeedProbe:
    """Samples the kernel's duration every PERIOD_S seconds while started."""

    def __init__(self):
        #: duration of every sample, in order
        self.samples: list[float] = []
        #: total time spent in samples, which the timed code must not count
        self.busy_s = 0.0
        self._previous = None
        self._sampling = False

    def sample(self, *_signal_args) -> None:
        if self._sampling:  # a timer signal that arrived during a sample
            return
        self._sampling = True
        try:
            t0 = time.perf_counter()
            kernel()
            elapsed = time.perf_counter() - t0
        finally:
            self._sampling = False
        self.samples.append(elapsed)
        self.busy_s += elapsed

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def slowdown(self, since: int) -> float:
        """Mean slowdown of the samples from index `since` on, weighted by time.

        A pass does work at rate REFERENCE_S / d while a sample takes d, so
        the pass's work, in seconds at the reference speed, is its time
        multiplied by the mean of REFERENCE_S / d.  This returns the
        reciprocal of that mean.
        """
        window = self.samples[since:]
        return len(window) / sum(REFERENCE_S / d for d in window)

