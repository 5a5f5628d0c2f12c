"""Speed of the machine while the benchmark runs, from a reference loop.

Every time the benchmark reports is scaled by (nominal / measured) time
of a fixed pure-Python loop.  The nominal times are those of the machine
the README's figures come from, on a core no other process slowed down:
REF_ITERATIONS steps timed by `ref_point`, and PROBE_ITERATIONS steps
timed inside the probe's signal handler.  Importing this module is cheap
(a cold start imports it after its timed work).
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

clock = time.perf_counter

REF_ITERATIONS = 4000
REF_NOMINAL_S = 0.0042
PROBE_ITERATIONS = 200
PROBE_NOMINAL_S = 0.00025
PROBE_PERIOD_S = 0.025
PROBE_MIN_SAMPLES = 5
# `hfm` slows less than the probe loop when the machine is loaded: over
# ten runs per workload, a log-log regression of every operation's time
# on its speed factor (one intercept per operation) gave exponents 0.71
# (gp-check), 0.76 (classify) and 0.83 (derive).
PROBE_EXPONENT = 0.75


def ref_sample(iterations=REF_ITERATIONS) -> float:
    """Seconds for a fixed pure-Python loop (tuples, dicts, frozensets,
    Fractions)."""
    start = clock()
    acc = Fraction(0)
    counts = {}
    seen = set()
    for i in range(iterations):
        key = (i % 7, i % 11, i % 13)
        counts[key] = counts.get(key, 0) + 1
        s = frozenset(key)
        if s not in seen and len(s) == 3:
            seen.add(s)
        if i % 4 == 0:
            acc += Fraction(i % 5, 3)
    return clock() - start


def ref_point() -> float:
    """Median of three reference samples."""
    return sorted(ref_sample() for _ in range(3))[1]


class SpeedProbe:
    """Samples the machine's speed while operations run.

    A SIGALRM timer runs a short reference loop every PROBE_PERIOD_S
    seconds of wall time, between bytecodes of whatever is running.  The
    speed factor of an interval is the mean of (nominal / measured) over
    the samples taken in it, raised to PROBE_EXPONENT.  The loop's own
    time is subtracted from the interval.
    `charge`, when set, is told each sample's duration (the tracer uses it
    to keep that time out of the layers' self times).
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self.charge = None

    def _tick(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()  # a collection inside the loop is not the machine's speed
        start = clock()
        ref_sample(PROBE_ITERATIONS)
        dt = clock() - start
        if collecting:
            gc.enable()
        self.samples.append(dt)
        self.spent += dt
        if self.charge is not None:
            self.charge(dt)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        # Let a few samples in before the first operation needs them.
        while len(self.samples) < PROBE_MIN_SAMPLES:
            ref_sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        return len(self.samples), self.spent

    def since(self, mark):
        """(seconds the probe took, speed factor) since `mark`; intervals
        with few samples also use the samples just before them."""
        n, spent = mark
        window = self.samples[min(n, len(self.samples) - PROBE_MIN_SAMPLES):]
        factor = sum(PROBE_NOMINAL_S / d for d in window) / len(window)
        return self.spent - spent, factor ** PROBE_EXPONENT
