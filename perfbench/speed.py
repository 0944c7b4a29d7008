"""Core-speed probe, for times that do not drift with the host's load.

On a shared virtual machine the speed of one core can change by a factor of
1.5 or more within seconds.  The probe runs on the same core as the workload: a
helper process that times a fixed kernel every PERIOD_S and logs
(start, duration).  `SpeedProbe.normalize` rescales a measured interval to a
core on which the kernel takes REF_S, by the mean speed over the interval:

    t_norm = t * mean(REF_S / kernel duration, over the interval)

The mean of speeds, not a median of durations, because a long interval mixes
fast and slow phases and the work done is the integral of the speed.

perf_counter is CLOCK_MONOTONIC, so the two processes share a time base.
"""

from __future__ import annotations

import bisect
import os
import statistics
import subprocess
import sys

PERIOD_S = 0.04
REF_S = 0.0015
MIN_SAMPLES = 25
# The kernel mixes what the workloads do: interpreter loops, a numpy sort, a
# small PCHIP interpolation and float-to-JSON formatting.  This mix tracked the
# slowdowns of splu, reconstruct, verify_all and state JSON better than either
# half alone.
PROBE_CODE = r"""
import json, select, sys, time
import numpy as np
from scipy.interpolate import PchipInterpolator
x = np.random.default_rng(0).random(5000)
px = np.linspace(0.0, 1.0, 60)
py = np.sin(3.0 * px)
pq = np.linspace(0.0, 1.0, 40)
floats = [float(v) for v in np.random.default_rng(1).random(200)]
with open(sys.argv[1], "w") as out:
    while True:
        t = time.perf_counter()
        s = 0
        for i in range(2000):
            s += i * i
        np.sort(x)
        PchipInterpolator(px, py)(pq)
        json.dumps(floats)
        out.write(f"{t!r} {time.perf_counter() - t!r}\n")
        if select.select([sys.stdin], [], [], float(sys.argv[2]))[0]:
            break
"""


class SpeedProbe:
    """Helper process on this process's core; `stop` collects its samples."""

    def __init__(self, log_path):
        self.log_path = log_path
        self.starts, self.durations = [], []
        self._proc = subprocess.Popen(
            [sys.executable, "-c", PROBE_CODE, log_path, str(PERIOD_S)],
            stdin=subprocess.PIPE)

    def stop(self):
        self._proc.stdin.close()
        self._proc.wait(timeout=30)
        with open(self.log_path) as fh:
            for line in fh:
                start, duration = map(float, line.split())
                self.starts.append(start)
                self.durations.append(duration)
        os.remove(self.log_path)

    def speed(self, t0, t1):
        """Mean of REF_S / kernel duration over [t0, t1], widened to MIN_SAMPLES samples."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.starts)):
            lo, hi = max(0, lo - 1), min(len(self.starts), hi + 1)
        return statistics.fmean(REF_S / d for d in self.durations[lo:hi])

    def normalize(self, t0, t1):
        return (t1 - t0) * self.speed(t0, t1)


def pin_to_one_core():
    """Restrict this process (and what it starts) to one of its usable cores."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
