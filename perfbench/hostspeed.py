"""Wall times corrected for the speed of a shared host.

The benchmark's machine is shared, and its speed swings: on the 2-vCPU
machine the workloads were sized on, one fixed ``cluster`` call took
0.43 s to 0.76 s within one minute, with process CPU time equal to wall
time and almost no steal time. The slowdown is in how fast instructions
retire, and it lasts from seconds to minutes, so 40-second runs of the
same workload differed by up to a third in their plain wall-clock
medians.

``timed`` therefore times a fixed probe, a small dynamic program in
plain Python, just before and just after a call, outside the call's
timed region, and scales the call's wall time by the host's speed then
relative to ``REFERENCE_S``. The result is seconds at the reference
speed. The probe uses no numpy: a tiny-array numpy probe once read five
to ten times slower than on another day while the library's command
times were the same. Limits: a change of speed inside one call is not
seen, and the call's file I/O is scaled like its computation.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# a round figure between the median probe() times, 0.7 ms and 1.3 ms, in
# the fast and slow phases of the 2-vCPU Xeon, Python 3.11 machine the
# workloads were sized on
REFERENCE_S = 0.001
SAMPLES = 3  # probes before and after a timed call


def probe(n: int = 40) -> float:
    """About a millisecond of interpreter work: a discrete Frechet table."""
    a = [(i * 0.37) % 5.0 for i in range(n)]
    b = [(i * 0.91) % 5.0 for i in range(n)]
    prev = [0.0] * n
    for i in range(n):
        cur = [0.0] * n
        for j in range(n):
            d = abs(a[i] - b[j])
            if i and j:
                d = max(min(prev[j], cur[j - 1], prev[j - 1]), d)
            elif i:
                d = max(prev[j], d)
            elif j:
                d = max(cur[j - 1], d)
            cur[j] = d
        prev = cur
    return prev[-1]


def probe_times(count: int) -> list[float]:
    times = []
    for _ in range(count):
        t0 = perf_counter()
        probe()
        times.append(perf_counter() - t0)
    return times


def speed() -> float:
    """The host's current speed relative to the reference; above 1 is faster."""
    return REFERENCE_S / statistics.median(probe_times(7 * SAMPLES))


def timed(fn):
    """Run ``fn()``; return its result, its wall seconds and its reference seconds."""
    before = probe_times(SAMPLES)
    t0 = perf_counter()
    out = fn()
    wall = perf_counter() - t0
    return out, wall, wall * REFERENCE_S / statistics.median(before + probe_times(SAMPLES))
