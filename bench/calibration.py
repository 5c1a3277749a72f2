"""A fixed calibration kernel, timed in each untraced child during its pass.

The host this benchmark runs on changes speed by tens of percent, at
times by 2x, in phases of seconds to minutes, and process CPU time follows
wall time, so the raw pass time of a run mostly measures the phase the run
fell into.  Pure-Python code slows the most.  The kernel is a pure-Python
scalar loop over ``math`` calls, like the interpreter-bound passes, and
calls nothing of ``zcp_paclab``, so its time moves with the host and not
with the program.  It allocates no arrays, so it leaves the child's peak
RSS alone.

Each untraced child times the kernel right after set-up, then between
segments of its pass (a segment is the invocations run until
``child.SEGMENT_S`` of pass time has gone by) and at the end.  A segment's
time times ``REFERENCE_S`` over the mean kernel time of its two ends is
its time at the host speed where the kernel takes ``REFERENCE_S``;
``wall_ref_s`` sums these over the pass.  ``setup_s`` rescales set-up
time the same way by the kernel time right after it.
"""

from __future__ import annotations

import math
import statistics
import time

# Median kernel time on the machine the benchmark was defined on (2 vCPUs,
# KVM guest, Intel Xeon, Python 3.11.7); a fixed scale factor.
REFERENCE_S = 0.012
# Kernel time taken at each timing.
BUDGET_S = 0.1


def kernel() -> float:
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    total = 0.0
    h = 1e-4
    for i in range(30_000):
        x = -2.0 + i * h
        total += math.exp(-x * x) * math.cos(3.0 * x) * (4.0 if i % 2 else 2.0)
    return total


def median_seconds(budget_s: float = BUDGET_S, clock=time.perf_counter) -> float:
    """Median kernel time over about ``budget_s`` seconds of runs (at least
    three), after one untimed run."""
    kernel()
    times: list[float] = []
    while len(times) < 3 or sum(times) < budget_s:
        start = clock()
        kernel()
        times.append(clock() - start)
    return statistics.median(times)


def at_reference_speed(pass_s: float, kernel_s: float) -> float:
    """``pass_s`` rescaled to the host speed where the kernel takes ``REFERENCE_S``."""
    return pass_s * REFERENCE_S / kernel_s


def segments_at_reference_speed(segments: list[list[float]]) -> float:
    """A pass's time, each segment ``[seconds, kernel before, kernel after]``
    rescaled by the mean of the kernel times that bracket it."""
    return sum(at_reference_speed(s, (before + after) / 2) for s, before, after in segments)


def mean_kernel_s(segments: list[list[float]]) -> float:
    """Mean of the kernel times taken during one pass, each counted once."""
    times = [segments[0][1]] + [after for *_, after in segments]
    return sum(times) / len(times)
