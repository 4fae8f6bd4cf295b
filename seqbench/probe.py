"""Host-speed probe: a fixed reference kernel timed between the workload's units.

The benchmark shares a host whose speed swings by tens of percent, for a
second or for a whole run, with no steal time reported, so ten runs of the
same code had quartile spreads of up to 0.32 of their median. A fixed
kernel that touches no seqmeas code slows down with the host but not with
the library. ``child.py`` times it just before every unit, for about 2% of
the unit's own time, and rescales the unit's time to the reference host
speed (``run.py`` likewise rescales each set-up time by ``spot_speed`` in
the same fresh interpreter):

    normalized = raw * REF_PROBE_S / median(probe samples near the unit)

A change to seqmeas moves the normalized times as it moves the raw ones; a
slower host slows the probe as well and cancels out. The raw times are kept
in the run record beside them.
"""

from __future__ import annotations

import bisect
import statistics
import time
from array import array

import numpy as np

# Samples taken before a unit: this many per second of the unit's last
# time, and at least MIN_PER_UNIT; about 2% of the run.
SAMPLES_PER_S = 100
MIN_PER_UNIT = 2
# The kernel's median duration, in seconds, on the reference host (2-vCPU
# Intel Xeon at 2.1 GHz, Python 3.11, numpy 2.4). It only sets the scale:
# normalized times read as seconds on that host.
REF_PROBE_S = 1.85e-4
# Samples taken within this many seconds of a unit's start and end count
# towards its speed; a unit with fewer than MIN_SAMPLES widens its window.
WINDOW_S = 0.5
MIN_SAMPLES = 8

_rng = np.random.default_rng(0)
_M = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
_L = [[complex(_M[i, j]) for j in range(4)] for i in range(4)]


def kernel() -> complex:
    """About 0.2 ms of the library's kind of work: complex arithmetic on
    Python lists, as in the Jacobi sweeps, and small numpy matrix products."""
    s = 0j
    for _ in range(8):
        for row in _L:
            for z in row:
                s += z * z.conjugate() * 0.5
    m = _M
    for _ in range(8):
        m = (m @ _M.conj().T) / 4.0
        np.einsum("ij,jk->ik", m, _M)
        s += abs(np.trace(m))
    return s


def spot_speed(count: int = 15) -> float:
    """Median kernel time, in seconds, over ``count`` calls made now."""
    for _ in range(5):
        kernel()
    durations = []
    for _ in range(count):
        t0 = time.perf_counter()
        kernel()
        durations.append(time.perf_counter() - t0)
    return statistics.median(durations)


class HostProbe:
    """Timed kernel samples, kept in start order."""

    def __init__(self):
        self.starts = array("d")
        self.durations = array("d")
        for _ in range(20):  # warm up before the first sample
            kernel()

    def sample(self, last_s: float) -> None:
        """Probe ahead of a unit whose last run took ``last_s`` seconds."""
        clock = time.perf_counter
        for _ in range(max(MIN_PER_UNIT, round(last_s * SAMPLES_PER_S))):
            t0 = clock()
            kernel()
            self.durations.append(clock() - t0)
            self.starts.append(t0)

    def speed(self, t0: float, t1: float) -> float:
        """Median sample duration near the interval [t0, t1], in seconds."""
        window = WINDOW_S
        while True:
            lo = bisect.bisect_left(self.starts, t0 - window)
            hi = bisect.bisect_right(self.starts, t1 + window)
            if hi - lo >= MIN_SAMPLES or hi - lo == len(self.starts):
                return statistics.median(self.durations[lo:hi])
            window *= 2

    def normalize(self, t0: float, t1: float) -> float:
        """The unit time ``t1 - t0`` at the reference host speed."""
        return (t1 - t0) * REF_PROBE_S / self.speed(t0, t1)

    def summary(self) -> dict:
        d = self.durations
        return {"samples": len(d), "median_us": statistics.median(d) * 1e6}

    def dump(self, path, units) -> None:
        """Write the samples and the timed units, ``(index, start, end)``."""
        np.savez_compressed(path, start=np.asarray(self.starts), duration=np.asarray(self.durations),
                            units=np.asarray(units, dtype=float).reshape(-1, 3))
