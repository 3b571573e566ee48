"""Host-speed calibration for the benchmark's time metrics.

The benchmark's host is shared: the same job, repeated back to back, takes
1.0x in one phase and 1.7x in the next, in phases from a second to several
minutes long, and process CPU time slows exactly as wall time does.  A
fixed calibration kernel timed between jobs slows in the same phases, so a
job's time divided by the kernel's time around it measures the program,
not the host's load at that moment.

The kernel is a sparse product of two polynomials stored as
{exponent tuple: Fraction}, the data layout the package's polynomials use.
It uses only the standard library and never the package, so a change to
the package cannot make the kernel faster or slower.

    elapsed_ref = elapsed * REF_S / (mean of the kernel times around and during it)

is the elapsed time in reference seconds: seconds on a host where one
kernel pass takes REF_S, about the fast phase of a 2-CPU x86-64 host
running Python 3.11.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

REF_S = 0.005
PASSES = 2
TICK_S = 0.1
# A sample this recent serves as the next stretch's 'before' sample.
REUSE_S = 0.05


def _operands():
    left, right = {}, {}
    for i in range(6):
        for j in range(6):
            left[(i, j, i * j % 3)] = Fraction(i + 1, j + 2)
            right[(j, i, (i + j) % 2)] = Fraction(j - 3, i + 1)
    return left, right


_LEFT, _RIGHT = _operands()


def _kernel() -> dict:
    out: dict = {}
    for ea, ca in _LEFT.items():
        for eb, cb in _RIGHT.items():
            exp = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            out[exp] = out.get(exp, 0) + ca * cb
    return out


def sample(passes: int = PASSES) -> float:
    """Seconds per kernel pass now, timed over `passes` passes.  The cyclic
    garbage collector is paused meanwhile: a collection would cost in
    proportion to the program's heap, not to the host's speed."""
    paused = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(passes):
            _kernel()
        return (time.perf_counter() - t0) / passes
    finally:
        if paused:
            gc.enable()


def rescale(elapsed: float, kernel_s: float) -> float:
    """Wall seconds in reference seconds, at a kernel pass time of kernel_s."""
    return elapsed * REF_S / kernel_s


class Calibrator:
    """Times a stretch of work in wall and in reference seconds.

    The kernel is sampled just before and just after the stretch (the
    sample after one stretch serves as the sample before the next when
    the next begins within REUSE_S) and, when
    ticking, once every TICK_S during it from a SIGALRM handler, so a phase
    change inside a long job is seen too.  The handler's own time is taken
    out of the stretch.  Ticks interrupt the program between bytecodes;
    a traced pass runs without them so that spans do not absorb them."""

    def __init__(self, ticks: bool = True):
        self.ticks = ticks
        self.samples: list[float] = []
        self.handled: list[tuple[float, float]] = []  # (start, seconds) per tick
        self.t0 = 0.0
        self.previous = None
        self.last = None  # (end time, kernel seconds) of the last sample

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(sample(1))
        self.handled.append((start, time.perf_counter() - start))

    def start(self) -> None:
        """Sample the kernel and start the clock; the stretch begins now."""
        if self.last is not None and time.perf_counter() - self.last[0] <= REUSE_S:
            before = self.last[1]
        else:
            before = sample()
        self.samples = [before]
        self.handled = []
        if self.ticks:
            self.previous = signal.signal(signal.SIGALRM, self._tick)
        self.t0 = time.perf_counter()
        if self.ticks:
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> tuple[float, float]:
        """End the stretch; return its (wall seconds, reference seconds)."""
        t1 = time.perf_counter()
        if self.ticks:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self.previous)
        spent = sum(seconds for start, seconds in self.handled if start < t1)
        wall = t1 - self.t0 - spent
        after = sample()
        self.last = (time.perf_counter(), after)
        self.samples.append(after)
        return wall, rescale(wall, statistics.fmean(self.samples))
