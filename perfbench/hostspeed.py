"""Host-speed correction: a fixed reference kernel timed while the program runs.

On the shared host this benchmark was tuned on, the speed of one process
wanders by up to a factor of two over seconds (CPU time tracks wall time,
so it is contention, not waiting), and its fast level drifts by a fifth
between runs minutes apart.  Raw times of the same code then spread past
any useful bound.

:class:`Ticker` measures the host's speed during a timed block, in the
block's own thread: an interval timer (``SIGALRM`` every ``TICK_S``)
interrupts the program between bytecodes, and the handler times
:func:`kernel_seconds`, a fixed amount of numpy work shaped like the
solver's: elementwise complex arithmetic from a Python loop, about a
third of the time on 201-point arrays (the presets' depth grid, where
numpy's per-call overhead dominates) and two thirds on 4001-point arrays
(deep slabs, where the arithmetic does).  Contention slows the two parts
by different factors; in 75 calls timed beside both, the run times of a
fig2b run, a one-point sweep and a 4001-point slab rose with this mix's
time to the powers 1.03, 0.93 and 0.77, against 0.80, 0.89 and 0.45 with
the small arrays alone.  The kernel is also timed once before and once
after the block, so even a block shorter than a tick is covered.

The program's own time is the block's time minus the handlers' time, and
:meth:`Ticker.corrected` scales it by ``REF_NOMINAL_S`` over the kernel's
mean time: seconds on a host where the kernel takes ``REF_NOMINAL_S``.  A
change that makes the program slower or faster moves the corrected time by
the same factor; a host slowdown moves program and kernel together and
mostly cancels (by the powers above, a twofold slowdown leaves a 2-15 %
bias).  The handlers take about 3 % of the block and change nothing the
program computes or writes.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

TICK_S = 0.05           # interval between reference timings inside a block
REF_NOMINAL_S = 1.0e-3  # kernel time that defines the corrected second
# (points, loops): 0.9-1.2 ms in all on the 2-vCPU Xeon guest this was tuned on
KERNEL_PARTS = ((201, 60), (4001, 32))

_ARRAYS = [(np.linspace(0.1, 1.0, n) + 0.5j, np.linspace(1.0, 0.1, n) + 0.5j, loops)
           for n, loops in KERNEL_PARTS]


def kernel_seconds() -> float:
    """Time one pass of the fixed reference work."""
    t0 = time.perf_counter()
    for a, b, loops in _ARRAYS:
        for _ in range(loops):
            c = a * b + a
            c *= 0.5
            c.sum()
    return time.perf_counter() - t0


class Ticker:
    """Reference timings taken before, during and after one timed block."""

    def __init__(self) -> None:
        self.ticks: list[tuple[float, float, float]] = []  # (start, handler s, kernel s)

    def _tick(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        kernel = kernel_seconds()
        self.ticks.append((t0, time.perf_counter() - t0, kernel))

    @contextmanager
    def running(self):
        """Tick now, every ``TICK_S`` inside the block, and once after it."""
        self._tick()
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self._tick()

    def handler_seconds(self, start: float, end: float) -> float:
        """Time the handlers took inside [start, end)."""
        return sum(d for t, d, _ in self.ticks if start <= t < end)

    @property
    def kernel_s(self) -> float:
        """Mean kernel time over the block: the host's speed while it ran."""
        return statistics.fmean(k for _, _, k in self.ticks)

    @property
    def scale(self) -> float:
        return REF_NOMINAL_S / self.kernel_s

    def corrected(self, start: float, end: float) -> float:
        """Program time in [start, end), handlers removed, in corrected seconds."""
        return (end - start - self.handler_seconds(start, end)) * self.scale
