"""The machine-speed reference that end-to-end times are scaled by.

On a shared 2-vCPU virtual machine the speed of plain Python code drifts:
the same calls ran up to 1.4x slower than their best for whole 40-second
runs, so no choice of sample within a run took the drift out. The
benchmark therefore times a fixed reference loop, plain integer
arithmetic in Python that never touches coarsetd (so no change to the
program can change its time), just before every timed call, and scales
the call's time by REFERENCE_S over the median reference time around the
call. Scaled times are seconds at the speed at which the loop takes
REFERENCE_S, about its time on that machine at its quickest.

Measured on that machine: over 100 s of interleaved calls, in blocks of
about 7 s, the standard deviation of log time between blocks was 0.13 to
0.14 unscaled and 0.05 to 0.06 scaled, for every workload. Of the
references tried (this loop and breadth-first searches over grids of 1k
to 40k vertices) this loop tracked the program best; the searches swung
by up to 1.9x where the program swung by 1.4x. Over ten 40-second runs
per workload (seeds 0-9), the spread of wall_s (interquartile range over
median) was 0.21 unscaled and 0.07 scaled on forward-large, 0.14 and 0.03
on simwidth-desk, 0.24 and 0.08 on pullback-cli.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

REFERENCE_LOOPS = 20_000
REFERENCE_S = 1.0e-3
HALF_WINDOW_S = 0.5


def reference_time():
    """Seconds the reference loop takes now."""
    start = perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i
    return perf_counter() - start


def scale(reference_times):
    """The factor that takes a time measured while the reference loop took
    these times to the reference speed."""
    return REFERENCE_S / statistics.median(reference_times)


def scaled(starts, times, references):
    """Each call's time scaled by the reference times taken within
    max(HALF_WINDOW_S, its own time) of it, so that a long call is scaled
    by the speed over a stretch as long as itself. The lists are in the
    order the calls ran; starts are perf_counter() readings."""
    out = []
    for start, t in zip(starts, times):
        reach = max(HALF_WINDOW_S, t)
        around = references[bisect_left(starts, start - reach) : bisect_right(starts, start + t + reach)]
        out.append(t * scale(around))
    return out
