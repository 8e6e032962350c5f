"""Host-speed normalisation of measured times.

The benchmark runs on a shared host whose speed changes by up to 2x within a
second and by tens of percent from one run to the next, because of what
other tenants run on the same cores.  To measure the program rather than the
host, a fixed kernel runs between jobs, outside the timed part, at most
every INTERVAL seconds.  The kernels use no quiverperiod code, so a change
to the program moves the normalised times as much as the raw ones.

Host speed changes do not hit all code alike: when interpreter-bound code
runs 1.6x faster, arithmetic on huge integers runs only about 1.15x faster.
So each workload names the kernel that does its kind of work:

  small  a sparse product over tuple keys with small integer coefficients,
         as in Laurent products and quiver mutation (laurent, survey);
  big    Fraction arithmetic on values of about 13 k bits, as in the
         numeric orbits and the growth-bounded iteration (growth).

A time measured over [start, end] is scaled by the kernel's reference time
over the median kernel time of the samples taken near that interval: within
WINDOW seconds, or within its own length if that is longer, since a long
job's time averages the host's speed over a long stretch.  The result is the
time the same work takes on a host where the kernel takes its reference time.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

INTERVAL = 0.1  # seconds between kernel samples
WINDOW = 0.1  # seconds: samples this close to a short interval count for it

_TERMS = {(i, j): i * j + 1 for i in range(8) for j in range(8)}
_X = Fraction(3**8400 + 1, 5**5400 + 2)
_Y = Fraction(7**4800 + 3, 2**13200 + 5)
_Z = Fraction(11**3600 + 1, 13**3000 + 4)


def small_kernel() -> int:
    out: dict = {}
    for (a, b), x in _TERMS.items():
        for (c, d), y in _TERMS.items():
            key = (a + c, b + d)
            out[key] = out.get(key, 0) + x * y
    return len(out)


def big_kernel() -> int:
    return ((_X * _Y + _Z) / (_X + 1)).numerator & 1


# kernel and its typical time in seconds on the tuning host (2-core Xeon VM)
KERNELS = {
    "small": (small_kernel, 0.0015),
    "big": (big_kernel, 0.005),
}


class Clock:
    """Kernel samples of one run, as (midpoint, seconds), in time order."""

    def __init__(self, kind: str):
        self.kernel, self.reference = KERNELS[kind]
        self.times: list[float] = []
        self.costs: list[float] = []

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()  # a collection of the program's objects is not host speed
        try:
            t0 = time.perf_counter()
            self.kernel()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.times.append((t0 + t1) / 2)
        self.costs.append(t1 - t0)

    def tick(self) -> None:
        """Take a sample if the last one is INTERVAL seconds old."""
        if not self.times or time.perf_counter() - self.times[-1] >= INTERVAL:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """The reference time over the median kernel time near [start, end]; the
        nearest sample on each side always counts."""
        reach = max(WINDOW, end - start)
        lo = bisect.bisect_left(self.times, start - reach)
        hi = bisect.bisect_right(self.times, end + reach)
        lo = min(lo, max(bisect.bisect_left(self.times, start) - 1, 0))
        hi = max(hi, bisect.bisect_right(self.times, end) + 1)
        near = self.costs[lo:hi]
        if not near:
            raise ValueError("no kernel samples")
        return self.reference / statistics.median(near)

    def scale(self, intervals) -> list[float]:
        """Normalised durations of (start, end) intervals."""
        return [(end - start) * self.factor(start, end) for start, end in intervals]
