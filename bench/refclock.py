"""Times at a fixed reference speed, for a host whose speed drifts.

A shared host changes speed by tens of percent within seconds and by up to
half over minutes, for every process on a core alike. So the same pass,
timed in wall seconds, spreads far more from run to run than any change
worth finding. The clock here samples the host's speed while the work runs:
a ``SIGALRM`` timer runs a small fixed reference computation (``ref_work``)
every ``PERIOD_S`` seconds in the main thread, between two bytecodes of
whatever the program is doing, and records the CPU time it took (CPU time,
so that a child sharing the core and running in between is not counted;
on this kind of host the slowdown is slower execution, and CPU time grows
with it as wall time does).

* ``now()`` is ``perf_counter()`` minus the time spent in reference work so
  far, so a span timed with it leaves the samples out.
* ``mark()`` numbers the samples taken so far, to name a window of them.
* ``scale(mark)`` is ``REF_S`` divided by the mean reference duration of the
  samples taken since ``mark``. Work seconds times that scale are seconds at
  the reference speed: the time the work takes on a host where one
  ``ref_work`` call takes ``REF_S``. The mean, not the median, because the
  samples stand for the host's speed at evenly spread instants, stalls
  included, and a stall slows the work as much as the sample.

The reference computation mixes what the program does: ``Fraction``
arithmetic, dictionary and integer work in the interpreter, and a small
matrix product in BLAS. It shares no code with the program, so a change to
the program moves the work's time and not the scale. Timers are not
inherited across ``fork``, so child processes are not interrupted.
"""
from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

import numpy as np

PERIOD_S = 0.05
"""Seconds between two samples; one sample costs ~2-3% of that."""

REF_S = 0.001
"""Nominal seconds of one ``ref_work`` call: the reference speed."""

_M = np.arange(48 * 48, dtype=float).reshape(48, 48) / 4096.0


def ref_work():
    """The fixed reference computation."""
    s = Fraction(0)
    for i in range(1, 200):
        s += Fraction(i, i + 1)
    d: dict = {}
    for i in range(500):
        d[i % 37] = d.get(i % 37, 0) + i * i
    m = _M
    for _ in range(6):
        m = m @ _M
    return s, d, m


class RefClock:
    """Samples the host's speed while the work runs; see the module doc."""

    def __init__(self):
        self.spent = 0.0
        self.samples: list[float] = []

    def _tick(self, signum, frame):
        t = time.thread_time()
        ref_work()
        d = time.thread_time() - t
        self.samples.append(d)
        self.spent += d

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def now(self) -> float:
        """Seconds of work: wall seconds without the reference samples."""
        return time.perf_counter() - self.spent

    def mark(self) -> int:
        return len(self.samples)

    def scale(self, mark: int = 0, end: int | None = None) -> float:
        """Seconds at reference speed per work second, from the samples
        ``mark`` to ``end`` (all samples if there are none in between; 1.0 if
        there are none at all)."""
        window = self.samples[mark:end] or self.samples
        return REF_S / statistics.fmean(window) if window else 1.0
