"""The host's speed, sampled while a pass runs.

On a shared host the speed of the machine drifts by a quarter or more over
minutes, and a whole run can land in a slow spell.  A fixed pure-Python
reference loop slows with it, and does not depend on torellikit, so the
benchmark divides its timings by the reference loop's time, measured
during the same pass, and multiplies by ``NOMINAL_S``.  The times it
reports are thus the times on a host where the loop takes ``NOMINAL_S``.

While a ``Probe`` is active, a timer signal runs the loop every
``INTERVAL_S`` seconds in the main thread.  The loop's time is the
thread's CPU time, so the pool threads of a suite, which may take the
interpreter lock during a probe, are not counted in it.  ``spent_s`` sums
the same CPU time, so a timed region can leave the probes out.  A region
is scaled by the probes taken during it and ``PAD_S`` around it, or by the
``LEAST`` probes nearest to it when it is shorter: the host's speed
changes from second to second.
"""

import signal
import statistics
import time

INTERVAL_S = 0.1
LOOP_N = 40_000
PAD_S = 0.5
LEAST = 5
# about the loop's mean time inside a pass on the host the bounds were
# set on (Intel Xeon, Python 3.11); only ratios between runs matter
NOMINAL_S = 0.003


def reference_loop(n: int = LOOP_N) -> int:
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


class Probe:
    """Samples the reference loop on a timer while the block runs."""

    def __init__(self):
        self.loop_s = []
        self.taken_at = []
        self.spent_s = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.thread_time()
        reference_loop()
        seconds = time.thread_time() - t0
        self.loop_s.append(seconds)
        self.taken_at.append(time.perf_counter())
        self.spent_s += seconds

    def __enter__(self):
        reference_loop()  # so the first sample is not a cold one
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.loop_s:  # a pass shorter than one interval
            self._tick(None, None)
        return False

    def scale_between(self, t0: float, t1: float) -> float:
        """The factor for a region from ``t0`` to ``t1`` (``perf_counter``)."""
        near = [s for t, s in zip(self.taken_at, self.loop_s)
                if t0 - PAD_S <= t <= t1 + PAD_S]
        if len(near) < LEAST:
            middle = (t0 + t1) / 2
            order = sorted(range(len(self.loop_s)),
                           key=lambda i: abs(self.taken_at[i] - middle))
            near = [self.loop_s[i] for i in order[:LEAST]]
        return NOMINAL_S / statistics.fmean(near)
