"""Host-speed probe: converts wall time into reference seconds.

The benchmark runs on a VM that shares its cores with other tenants.  Its
speed switches, every few seconds, between a fast state and a state about
1.65 times slower, and the share of slow time differs from minute to minute,
so wall times of the same code spread by up to a third.  The process's CPU
time spreads just as much: the slow state executes slower, it does not wait.

`Probe` times a small fixed kernel (`Fraction` sums and a dict keyed by
tuples, the program's own kind of work) every INTERVAL_S of wall time, from
a SIGALRM handler in the measured process itself, so its samples read the
host's speed while the program runs.  `reference_seconds` rescales each
interval between samples by PROBE_REF_S / sample: the result is how long the
measured work would take on a host where the kernel takes PROBE_REF_S, which
is its duration on the reference host (2-core Intel Xeon VM, Python 3.11.7)
in its fast state.  Time spent in the probe itself is taken out first.

The kernel runs with the garbage collector off, so that the program's heap
does not decide the kernel's time.  The program's cache state still does, a
little: the kernel reads about 10% slower while `dims-d2` runs than while the
other workloads run.  That factor is the same on every run of one program,
so runs of the same code stay comparable.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.02
PROBE_REF_S = 170e-6


def _kernel():
    total = Fraction(0)
    table = {}
    for i in range(1, 60):
        total += Fraction(1, i)
        table[(i % 7, i % 3)] = i
    return total


class Probe:
    """Samples the kernel's duration every INTERVAL_S while started."""

    def __init__(self):
        self.samples = []
        self.overhead_s = 0.0

    def start(self):
        # Three untimed runs let the interpreter specialise the kernel; they
        # count as probe time, like every later sample.
        began = time.perf_counter()
        for _ in range(3):
            _kernel()
        self.overhead_s += time.perf_counter() - began
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _on_alarm(self, signum, frame):
        self.sample()

    def sample(self):
        enabled = gc.isenabled()
        gc.disable()
        began = time.perf_counter()
        _kernel()
        ended = time.perf_counter()
        if enabled:
            gc.enable()
        self.samples.append(ended - began)
        self.overhead_s += time.perf_counter() - began

    def take(self):
        """(samples, probe seconds) since the last take, closed by one more sample."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self.sample()
            taken = self.samples, self.overhead_s
            self.samples, self.overhead_s = [], 0.0
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        return taken


def reference_seconds(wall_s, samples, overhead_s):
    """Wall seconds without the probe's own time, rescaled to the reference speed.

    The samples are evenly spaced in wall time, so each stands for an equal
    share of the interval, and that share runs at speed PROBE_REF_S / sample.
    """
    speed = sum(PROBE_REF_S / s for s in samples) / len(samples)
    return (wall_s - overhead_s) * speed
