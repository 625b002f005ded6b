"""Wall times rescaled to a reference CPU speed.

On a shared machine the speed of one core drifts.  On a 2-vCPU Intel Xeon
virtual machine (Python 3.11) a fixed pure-Python probe ran either at about
0.31 ms or at about 0.57 ms, flipping every few milliseconds, and the share
of slow time drifted over seconds and minutes: 5-second medians of a fixed
loop ranged from 13.8 to 23.6 ms.  Timed raw, two runs of the same code then differ by more than any
useful regression bound.

`SpeedClock` samples that speed while a workload runs.  A SIGALRM timer runs
a fixed probe of Fraction arithmetic, the library's own staple, every
INTERVAL_S seconds in the main thread, so no thread is added.  Between two
probes the clock runs at NOMINAL_S over the mean probe time within PAD_S of
the earlier probe, and it stands still while a probe runs.  The padding
averages about eighty probes, so the rate follows the drift without the
noise of single probes.  The clock is an integral of that rate, so the
seconds of adjacent intervals add up, and a span's children never take
more than the span.  At the reference speed, where the probe takes
NOMINAL_S, the clock keeps wall time.
"""

from __future__ import annotations

import bisect
import signal
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.025
PAD_S = 1.0
NOMINAL_S = 0.0006  # probe time at the reference speed, about the median here


def probe() -> Fraction:
    total = Fraction(0)
    for i in range(1, 80):
        total += Fraction(i, i + 1) * Fraction(2 * i + 1, 3)
    return total


def probe_seconds(repeats: int = 25) -> float:
    """Mean time of the probe, for a process too short to sample."""
    start = perf_counter()
    for _ in range(repeats):
        probe()
    return (perf_counter() - start) / repeats


class SpeedClock:
    def __init__(self):
        self._starts: list[float] = []
        self._durations: list[float] = []
        self._prefix: list[float] = [0.0]
        self._final: tuple[list[float], list[float]] | None = None

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        probe()
        duration = perf_counter() - start
        self._starts.append(start)
        self._durations.append(duration)
        self._prefix.append(self._prefix[-1] + duration)

    def __enter__(self) -> "SpeedClock":
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._final = self._integral()

    def _integral(self) -> tuple[list[float], list[float]]:
        """The clock rate after each probe, and the clock reading at each probe."""
        starts, durations, prefix = self._starts, self._durations, self._prefix
        rates, readings = [], [0.0]
        for i, start in enumerate(starts):
            lo = bisect.bisect_left(starts, start - PAD_S)
            hi = bisect.bisect_right(starts, start + PAD_S)
            rates.append(NOMINAL_S * (hi - lo) / (prefix[hi] - prefix[lo]))
            if i:
                gap = start - starts[i - 1] - durations[i - 1]
                readings.append(readings[-1] + gap * rates[i - 1])
        return rates, readings

    def seconds(self, a: float, b: float) -> float:
        """Reference-speed seconds of the wall interval [a, b] (perf_counter times).

        While the clock runs, probes after b are not known yet and the
        rates near b average fewer probes.
        """
        rates, readings = self._final or self._integral()
        starts, durations = self._starts, self._durations

        def reading(t: float) -> float:
            i = max(0, bisect.bisect_right(starts, t) - 1)
            return readings[i] + max(0.0, t - starts[i] - durations[i]) * rates[i]

        return reading(b) - reading(a)
