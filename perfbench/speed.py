"""Machine-speed probe, so that end-to-end times follow the program, not the host.

The shared host the figures come from changes speed by up to ±25% within
tens of seconds, for interpreter and numpy code alike, in thread CPU time as
much as in wall time.  A probe times a fixed computation of the benchmark's
own (the `reference.q_star` recursion over a random POMDP, which does not
touch the package) in every gap between two timed regions.  Each timed region
is then scaled by `NOMINAL_NS` over the mean of the probe times just before
and just after it, so it reads what it would at the probe's nominal speed.

A change to the package moves its timed regions and leaves the probe as it
is, so a gain or loss in the program shows in full; a slower or faster phase
of the host moves both, and cancels.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

import reference

# About the probe's time on the 2-core Xeon VM the reference figures come
# from (its run medians there ranged from 2.2 to 3.9 ms).  It only fixes the
# scale; any constant gives the same spreads and ratios.
NOMINAL_NS = 2_500_000
REPEATS = 4            # one probe = the median of this many timed kernels
ACTIONS, STATES, OBSERVATIONS, HORIZON = 4, 12, 5, 3


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        t = rng.random((ACTIONS, STATES, STATES))
        z = rng.random((STATES, OBSERVATIONS))
        self.model = (t / t.sum(axis=2, keepdims=True),
                      z / z.sum(axis=1, keepdims=True),
                      rng.random((STATES, ACTIONS)))
        self.belief = np.full(STATES, 1.0 / STATES)
        self.last_ns = self.measure()
        self.samples = [self.last_ns]

    def measure(self) -> float:
        """Median time of one kernel, in nanoseconds."""
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter_ns()
            reference.q_star(*self.model, self.belief, HORIZON)
            times.append(time.perf_counter_ns() - t0)
        return statistics.median(times)

    def scale(self) -> float:
        """Probe now, and return the factor for the region timed since the
        previous probe: nominal over the mean of the probes around it."""
        now = self.measure()
        factor = NOMINAL_NS / ((self.last_ns + now) / 2)
        self.last_ns = now
        self.samples.append(now)
        return factor
