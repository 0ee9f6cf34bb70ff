"""CPU time of units of work, scaled to a reference machine speed.

The benchmark runs on small shared virtual machines.  There the host
steals wall time, and the speed of the CPU time that is left moves too:
the same iris split took 0.96 s to 1.64 s of CPU time within one minute in
one process.  A fixed reference loop slows down and speeds up with it
(correlation 0.73 over 25 splits, 0.85-0.92 for the inference path over
ten 10 s blocks).  So the meter runs that loop between units of work, at
least every ``SAMPLE_EVERY_S`` of CPU time, and divides each stretch of a
unit's CPU time by the loop's time there over ``REFERENCE_CPU_S``.  The
result reads as CPU seconds on a machine where the loop takes
``REFERENCE_CPU_S``.  The loop's own time is taken out of every unit.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

cpu = time.process_time

# CPU seconds one reference_work() call takes at reference speed (an idle
# 2-vCPU Intel Xeon virtual machine).
REFERENCE_CPU_S = 0.004
SAMPLE_EVERY_S = 0.2

_REF_MATRIX = np.linspace(0.0, 1.0, 85 * 801).reshape(85, 801)
_REF_VECTOR = np.linspace(1.0, 0.0, 85)


def reference_work() -> float:
    """A fixed mix of interpreter loop and mat-vecs on one cached matrix, like
    sefm's inner loops; it allocates nothing large, so the process's heap
    state does not change its cost."""
    total = 0.0
    for i in range(30000):
        total += i * 0.5
    for _ in range(80):
        total += float((_REF_VECTOR @ _REF_MATRIX).max())
    return total


class Meter:
    """Times units of work on a work clock that leaves the reference samples out.

    A reading is the (start, end) of a unit on the work clock, CPU seconds
    less the samples' own.  ``scaled`` divides each stretch of a unit
    between two samples by the slowness there: the median of the four
    samples around it over REFERENCE_CPU_S.
    """

    def __init__(self, every: float = SAMPLE_EVERY_S):
        self.every = every
        self.at: list[float] = []     # work-clock time of each reference sample
        self.took: list[float] = []   # its CPU seconds
        self.spent = 0.0
        self._due = 0.0

    def clock(self) -> float:
        return cpu() - self.spent

    def sample(self) -> None:
        t0 = cpu()
        reference_work()
        t1 = cpu()
        self.at.append(t0 - self.spent)
        self.took.append(t1 - t0)
        self.spent += t1 - t0
        self._due = t1 + self.every

    def tick(self) -> None:
        """Take a reference sample if one is due."""
        if cpu() >= self._due:
            self.sample()

    @contextmanager
    def unit(self, readings: list):
        """Times the with-block and appends its reading to ``readings``."""
        self.tick()
        start = self.clock()
        yield
        readings.append((start, self.clock()))
        self.tick()

    def slowness(self) -> float:
        """Median sample over REFERENCE_CPU_S, for the whole meter."""
        return float(np.median(self.took)) / REFERENCE_CPU_S

    def scaled(self, readings: list) -> list[float]:
        """CPU seconds at reference speed of each reading."""
        at, took = np.array(self.at), np.array(self.took)
        slow = np.array([np.median(took[max(0, k - 1):k + 3]) for k in range(len(took))])
        slow /= REFERENCE_CPU_S
        out = []
        for start, end in readings:
            edges = np.concatenate(([start], at[(at > start) & (at < end)], [end]))
            stretch = np.clip(np.searchsorted(at, edges[:-1], side="right") - 1, 0, len(at) - 1)
            out.append(float(np.sum(np.diff(edges) / slow[stretch])))
        return out


@contextmanager
def timed_calls(module, name: str, meter: Meter, readings: list):
    """While active, every call of ``module.name`` is a unit of ``meter``."""
    original = getattr(module, name)

    def timed(*args, **kwargs):
        with meter.unit(readings):
            return original(*args, **kwargs)

    setattr(module, name, timed)
    try:
        yield readings
    finally:
        setattr(module, name, original)


@contextmanager
def ticking(module, name: str, meter: Meter):
    """While active, ``meter`` may take a reference sample before each call of
    ``module.name``; a long unit then gets samples from inside it too.  A name
    that is gone is left alone."""
    original = getattr(module, name, None)
    if original is None:
        yield
        return

    def ticked(*args, **kwargs):
        meter.tick()
        return original(*args, **kwargs)

    setattr(module, name, ticked)
    try:
        yield
    finally:
        setattr(module, name, original)
