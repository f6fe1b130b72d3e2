"""Sampling the speed of the machine while the benchmark runs.

On a shared machine the speed of a core drifts by 20% and more within a
minute, which swamps the differences the benchmark has to resolve. A
`SpeedProbe` times a small fixed piece of reference work every INTERVAL_S
seconds of wall time, from a SIGALRM handler, so the samples are spread
evenly over the measured region. Dividing the region's wall time by the
machine's slowness (sample time over REFERENCE_S), averaged over the
samples, gives the seconds the region would have taken at the reference
speed.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.02
# Nominal duration of one call to reference_work: a typical sample on the
# 2-vCPU Xeon machine the benchmark was tuned on (CPython 3.11).
REFERENCE_S = 150e-6

# Built once; reference_work only reads them. It creates no container
# objects, so it never starts a garbage collection, whose cost belongs to
# the measured code.
_KEYS = tuple((i, i & 7) for i in range(256))
_TABLE = {k: k[0] * 3 % 7 for k in _KEYS}


def reference_work() -> int:
    """Dict lookups under tuple keys and small-integer arithmetic, the kind
    of work that dominates `ecat`."""
    total = 0
    for _ in range(4):
        for k in _KEYS:
            total += _TABLE[k] + k[1]
    return total


class SpeedProbe:
    """Context manager that samples machine speed over a region.

    `probe_s` is the time spent in the handler, which the caller subtracts
    from the region's wall time. Only one probe may be active at a time,
    and only in the main thread.
    """

    def __init__(self):
        self.samples = []
        self.probe_s = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        reference_work()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.probe_s += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def normalise(self, wall_s: float) -> float:
        """Seconds at the reference speed for a region of wall_s seconds
        that was probed throughout (the probe's own time included)."""
        if not self.samples:
            raise RuntimeError("no speed samples: the region was too short")
        speed = statistics.fmean(REFERENCE_S / s for s in self.samples)
        return (wall_s - self.probe_s) * speed


def timed(fn):
    """(result, wall seconds, seconds at the reference speed) of fn()."""
    with SpeedProbe() as probe:
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
    return result, wall, probe.normalise(wall)
