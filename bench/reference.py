"""A fixed reference kernel that turns wall time into reference time.

The benchmark runs on machines shared with other tenants, whose speed drifts
by up to 2x for seconds or minutes at a time; the same item, repeated in one
process, spread 30 % between its quartiles.  The kernel below is a small
tree-walking forward-mode evaluator, the same kind of work as projeq's jet
evaluation, but frozen here so that no change to projeq moves it.  A
SIGALRM timer runs it every PERIOD_S seconds while a workload runs, also in
the middle of an item, and the mean of the samples taken over a stretch of
wall time tells how fast the machine ran meanwhile:

    reference seconds = wall seconds * REFERENCE_S / mean kernel seconds

One reference second is the time the kernel needs for REFERENCE_S, so on a
machine running the kernel in REFERENCE_S the two clocks agree.
"""

from __future__ import annotations

import gc
import signal
import time
from contextlib import contextmanager

REFERENCE_S = 0.002     # kernel time that defines the unit (2-vCPU Xeon, 2.1 GHz, quiet)
PERIOD_S = 0.1          # wall seconds between kernel samples


class _Jet:
    __slots__ = ("v", "d")

    def __init__(self, v, d=0.0):
        self.v = v
        self.d = d

    def __add__(self, o):
        return _Jet(self.v + o.v, self.d + o.d)

    def __mul__(self, o):
        return _Jet(self.v * o.v, self.v * o.d + self.d * o.v)


# ((x*x + 1.5) * x + 0.25) * (x + 2)
_TREE = ("*", ("+", ("*", ("+", ("*", "x", "x"), 1.5), "x"), 0.25), ("+", "x", 2.0))


def _eval(t, x):
    match t:
        case "x":
            return _Jet(x, 1.0)
        case float():
            return _Jet(t)
        case (op, a, b):
            left, right = _eval(a, x), _eval(b, x)
            return left + right if op == "+" else left * right


def kernel_seconds() -> float:
    """Wall time of one kernel run (about 2 ms); the garbage collector stays
    off so that a collection of the caller's heap cannot land in the sample."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for i in range(250):
            _eval(_TREE, 0.001 * i)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Kernel samples taken while a workload runs.

    Inside `ticking()` a SIGALRM timer takes one every PERIOD_S seconds,
    also while an item runs, so that a long item is scaled by the machine
    speed during it, not only at its ends; `sample()` takes one at once.
    `stolen` is the wall time spent in samples, which the caller subtracts
    from what it timed.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.stolen = 0.0

    def sample(self, *_):
        t0 = time.perf_counter()
        self.samples.append(kernel_seconds())
        self.stolen += time.perf_counter() - t0

    @contextmanager
    def ticking(self):
        """Sample now, then from a SIGALRM timer while the block runs."""
        self.sample()
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, first: int, last: int) -> float:
        """REFERENCE_S over the mean of samples first .. last: the factor
        that turns wall time spent between them into reference time."""
        window = self.samples[first:last + 1]
        return REFERENCE_S * len(window) / sum(window)
