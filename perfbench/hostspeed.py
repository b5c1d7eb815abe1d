"""Host speed, measured by a fixed pure-Python loop timed between calls.

A shared host runs the same code at different speeds at different times:
a fixed loop takes 1.5x as long in one stretch of minutes as in another,
and for shorter bursts inside a stretch. Timings taken in different
stretches measure the host, not the program. This module times a fixed
loop, the probe, between the benchmark's calls into the package, and
expresses each call's duration in reference time:

    reference ns = measured ns * REFERENCE_NS / probe ns

where probe ns is the fastest probe within ``WINDOW_NS`` of the call, and
``REFERENCE_NS`` is what the probe takes on the reference host. The probe
never calls the package, so a change to the program moves the reference
time of its calls exactly as it moves their measured time; a change in host
speed moves the probe and the calls alike and cancels out.
"""

from __future__ import annotations

import bisect
import time

_clock = time.perf_counter_ns

# Probe time on the reference host, the 2-core container the benchmark was
# built on, in its fast state.
REFERENCE_NS = 500_000
# Probe at most this often between calls, and judge a call by the probes
# that fall within this distance of it.
EVERY_NS = 10_000_000
WINDOW_NS = 500_000_000


def probe() -> int:
    """ns taken by the fixed loop: integer arithmetic and dict stores."""
    t0 = _clock()
    total, table = 0, {}
    for i in range(5000):
        total += i * i % 7
        table[i & 255] = total
    return _clock() - t0


class HostSpeed:
    """Probe times of one phase, in time order."""

    def __init__(self) -> None:
        self.at: list[int] = []
        self.ns: list[int] = []

    def sample(self, force: bool = False) -> None:
        """Probe now, unless a probe ran less than EVERY_NS ago."""
        now = _clock()
        if force or not self.at or now - self.at[-1] >= EVERY_NS:
            self.ns.append(probe())
            self.at.append(now)

    def probe_ns(self, start: int, end: int) -> int:
        """Fastest probe within WINDOW_NS of the interval [start, end]."""
        lo = bisect.bisect_left(self.at, start - WINDOW_NS)
        hi = bisect.bisect_right(self.at, end + WINDOW_NS)
        return min(self.ns[lo:hi])

    def reference_ns(self, start: int, end: int) -> float:
        """The duration of [start, end] in reference time."""
        return (end - start) * REFERENCE_NS / self.probe_ns(start, end)


def timed(fn, probes: int = 5) -> tuple[object, float]:
    """(result, reference seconds) of one call, probed just before and after."""
    speed = HostSpeed()
    for _ in range(probes):
        speed.sample(force=True)
    t0 = _clock()
    result = fn()
    t1 = _clock()
    for _ in range(probes):
        speed.sample(force=True)
    return result, speed.reference_ns(t0, t1) / 1e9
