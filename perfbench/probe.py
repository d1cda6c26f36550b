"""How fast the host runs while a pass runs, sampled from inside the pass.

On a small shared host the CPU speed a process gets moves by a factor of two
or more, within a second and across minutes (see RATIONALE.md), and a
program's wall time moves with it.  ``SpeedProbe`` samples that speed all
through a pass: a ``SIGALRM`` handler times a short fixed piece of stdlib
work every ``PERIOD_S`` seconds.  ``reference(raw, start, end)`` turns a raw
duration into *reference seconds*, the time the same work would take on a
host where the probe takes ``REF_S``: the raw time times the mean speed
sampled around it.  The probe is stdlib only, so a change to the program
under test cannot move it; a faster program still shows as fewer reference
seconds.

The probe does what the program does most: products of small polynomials
held as dicts of exponent tuples, here with ``Fraction`` coefficients.  It
tracks the program better than a tight integer loop, than allocating and
sorting small objects, or than walking a large array (see RATIONALE.md).

Time spent in the handler is kept in ``spent`` so callers can take it out
of the durations they measure.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

REF_S = 0.0002      # the probe's time on the reference host, in seconds
PERIOD_S = 0.025    # time between samples
WINDOW_S = 0.25     # samples this far either side of a span count for it
MIN_SAMPLES = 8     # a span with fewer takes its nearest samples instead

_POLY = {(0, 0): Fraction(1), (1, 0): Fraction(2, 3), (0, 1): Fraction(-5, 7),
         (1, 1): Fraction(3, 11)}


def _work():
    f = _POLY
    for _ in range(2):
        h = {}
        for ea, ca in f.items():
            for eb, cb in _POLY.items():
                e = (ea[0] + eb[0], ea[1] + eb[1])
                h[e] = h.get(e, 0) + ca * cb
        f = {e: c for e, c in h.items() if c}
    return len(f)


class SpeedProbe:
    def __init__(self):
        self.times = []     # perf_counter at each sample
        self.speeds = []    # REF_S / probe time at each sample
        self.spent = 0.0    # seconds spent taking samples
        self.busy = False

    def sample(self, *_):
        # Python may run a handler inside another; a tick that lands inside a
        # sample is dropped, which keeps the samples in time order
        if self.busy:
            return
        self.busy = True
        t0 = perf_counter()
        _work()
        t1 = perf_counter()
        self.times.append(t0)
        self.speeds.append(REF_S / (t1 - t0))
        self.spent += perf_counter() - t0
        self.busy = False

    def start(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def speed(self, start, end) -> float:
        """Mean sampled speed over [start - WINDOW_S, end + WINDOW_S]."""
        times = self.times
        lo = bisect_left(times, start - WINDOW_S)
        hi = bisect_right(times, end + WINDOW_S)
        while hi - lo < min(MIN_SAMPLES, len(times)):
            # widen towards whichever side's next sample is closer
            if lo > 0 and (hi == len(times) or start - times[lo - 1] < times[hi] - end):
                lo -= 1
            else:
                hi += 1
        window = self.speeds[lo:hi]
        return sum(window) / len(window)

    def reference(self, raw, start, end) -> float:
        """`raw` seconds measured over [start, end], in reference seconds."""
        return raw * self.speed(start, end)
