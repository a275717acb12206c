"""Host-speed scaling for timings taken on a shared, noisy host.

The 2-core host this benchmark was built on runs the same code up to 1.6x
slower for stretches of a second to minutes, and CPU time slows with wall
time. So a fixed probe samples the host's speed: an interpreter-bound loop
of the kinds of work idtrack does (frozen dataclasses, ``replace``, float
math, float text formatting and parsing). It runs right before and after
each measured unit and, from a ``SIGALRM`` timer, every ``INTERVAL``
seconds while the unit runs. The time spent inside probes is taken out of
every measurement (``clock``), and a unit's time is multiplied by
``nominal / mean probe time`` over the probes taken around and during it.

A probe evicts the program's data from the caches, so per-frame timing
pauses the timer (``paused``) and probes between frames itself. The
program under test never runs inside a probe, so a change to it moves only
the unit's time.
"""

from __future__ import annotations

import gc
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class _Box:
    cx: float
    cy: float
    w: float
    h: float


class HostSpeed:
    ITEMS = 1000  # about 10 ms per probe
    EDGE_PROBES = 3  # before and after each unit
    INTERVAL = 0.25  # seconds between timer probes

    def __init__(self, nominal: float):
        self.nominal = nominal
        self.durations: list[float] = []  # every probe, in order
        self.spent = 0.0  # seconds spent inside probes so far
        self._previous_handler = None

    def probe(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            acc = 0.0
            for i in range(self.ITEMS):
                b = _Box(i * 0.5, i * 0.25, 3.0 + i % 7, 2.0 + i % 5)
                c = replace(b, cx=b.cx + 1.0)
                acc += min(b.cx + b.w, c.cx + c.w) - max(b.cx, c.cx)
                acc += float(f"{c.cx:.6f},{c.cy:.9f}".split(",")[1])
            duration = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.durations.append(duration)
        self.spent += duration

    def clock(self) -> float:
        """``time.perf_counter()`` minus the time spent in probes; monotonic."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:  # no probe ran in between
                return now - spent

    def __enter__(self):
        self._previous_handler = signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        return False

    @contextmanager
    def paused(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)

    def probe_mean(self, n: int) -> float:
        """Mean duration of ``n`` probes run now."""
        for _ in range(n):
            self.probe()
        return sum(self.durations[-n:]) / n

    def timed(self, fn, *args):
        """Run ``fn(*args)``; returns (result, seconds without probes, scale
        factor over the probes before, during and after it)."""
        first = len(self.durations)
        self.probe_mean(self.EDGE_PROBES)
        start = self.clock()
        result = fn(*args)
        elapsed = self.clock() - start
        self.probe_mean(self.EDGE_PROBES)
        taken = self.durations[first:]
        return result, elapsed, self.nominal * len(taken) / sum(taken)
