"""Clocks for the benchmark, and host speed measured with a fixed
reference loop, for scaling times to normalised seconds.

On a small shared host the speed of a virtual CPU changes by a third
and more from one second to the next, as other guests come and go; CPU
time does not remove that, because the CPU runs slower, not less, and
a stretch of slow seconds can cover a good part of a run, so a
median over the run cannot remove it either.

The benchmark therefore times a short fixed pure-Python loop, which
uses no deploysim code, right before and right after each mission and
each set-up repetition, and every INTERVAL_S during it from a SIGALRM
handler, and scales the CPU time of the work, less that of the handler,
by `NOMINAL_NS / mean reference time`.  The result is *normalised
time*: the time the work would take on a host where the reference loop takes
NOMINAL_NS.  A change to deploysim moves the work and not the
reference loop, so it moves the normalised time in full.
"""

import math
import resource
import signal
from time import process_time_ns

# The reference loop's CPU time on the nominal host, by definition of the
# normalised second; about its time on a calm 2 GHz Xeon virtual CPU.
NOMINAL_NS = 1_500_000
STEPS = 5_000
# Wall time between samples during the work.  A real-time timer, because
# a CPU-time one makes the kernel report process CPU time by the tick.
INTERVAL_S = 0.04


def cpu_ns() -> int:
    """CPU time of this process and of its children that have ended, in ns.

    On a virtual machine whose kernel accounts steal time, this leaves
    out the time the host gave the CPU to other guests, which wall time
    counts.  Children count so that work moved into worker processes
    still shows.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time_ns() + round(
        (children.ru_utime + children.ru_stime) * 1e9)


class _Body:
    """A point mass under gravity and drag: the same kind of work as the
    simulator (attribute access, float arithmetic, calls, appends)."""

    __slots__ = ("x", "v")

    def __init__(self) -> None:
        self.x = 1000.0
        self.v = 0.0

    def step(self, dt: float) -> None:
        rho = 1.225 * math.exp(-self.x / 8500.0)
        self.v += (-9.80665 + 0.0005 * rho * self.v * abs(self.v)) * dt
        self.x += self.v * dt
        if self.x < 0.0:
            self.x, self.v = 1000.0, 0.0


def reference_loop() -> int:
    """CPU ns of one run of the fixed reference loop."""
    start = cpu_ns()
    body = _Body()
    rows = []
    for tick in range(STEPS):
        body.step(0.001)
        if tick % 20 == 0:
            rows.append((tick, body.x, body.v))
    return cpu_ns() - start


def normalised(work):
    """Run `work()`; return its result, its CPU ns and the factor that
    turns them into normalised ns, from reference loops before, during
    and after it.  Call it from the main thread only."""
    samples = [reference_loop()]
    sampling_ns = 0

    def sample(signum, frame):
        nonlocal sampling_ns
        start = cpu_ns()
        samples.append(reference_loop())
        sampling_ns += cpu_ns() - start

    previous = signal.signal(signal.SIGALRM, sample)
    try:
        start = cpu_ns()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            result = work()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = cpu_ns() - start - sampling_ns
    finally:
        signal.signal(signal.SIGALRM, previous)
    samples.append(reference_loop())
    return result, elapsed, NOMINAL_NS * len(samples) / sum(samples)
